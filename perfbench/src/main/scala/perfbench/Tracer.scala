package perfbench

import java.io.PrintWriter
import scala.collection.mutable

/** In-memory span recorder. A span is (id, parent id, name, start, end) in
  * nanoseconds; the parent is the span open on the recording thread when the
  * span starts (-1 at the top). Spans are written out when the run ends.
  */
final class Tracer {
  private final class Span(val id: Int, val parent: Int, val name: String, val start: Long) {
    var end: Long = -1L
  }

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil

  def span[A](name: String)(body: => A): A = {
    val s = new Span(spans.length, open.headOption.fold(-1)(_.id), name, System.nanoTime())
    spans += s
    open = s :: open
    try body
    finally {
      s.end = System.nanoTime()
      open = open.tail
    }
  }

  /** Summed duration in milliseconds of every span called `name`. */
  def totalMs(name: String): Double =
    spans.iterator.filter(_.name == name).map(s => (s.end - s.start) / 1e6).sum

  /** Tab-separated spans: id, parent, name, start_ns, end_ns. */
  def write(path: java.io.File): Unit = {
    val w = new PrintWriter(path, "UTF-8")
    try {
      w.println("id\tparent\tname\tstart_ns\tend_ns")
      spans.foreach(s => w.println(s"${s.id}\t${s.parent}\t${s.name}\t${s.start}\t${s.end}"))
    } finally w.close()
  }
}

package perfbench

import repro.core._
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable

/** The loop `KVCCEnumerator.enumerate` runs, replayed from public calls with
  * a span around each layer: `GraphOps.kCore` → `GraphOps.componentSubgraphs`
  * → `GlobalCut.find` / `GlobalCutStar.find` → `Overlap.partition`.
  *
  * Each GLOBAL-CUT input is also handed to `SparseCertificate.compute` and the
  * certificate to the `FlowNetwork` constructor, outside the GLOBAL-CUT span,
  * to time those two layers; GLOBAL-CUT builds its own copies.
  */
object Replay {

  /** Counters only the replay can see. */
  final case class Counters(pieces: Long, largestPiece: Int, depthMax: Int, dedupHits: Long)

  @volatile private var sink: AnyRef = null

  def enumerate(
      g0: AdjGraph,
      k: Int,
      variant: Variant,
      stats: KvccStats,
      tracer: Tracer): (Vector[AdjGraph], Counters) = {
    val out = Vector.newBuilder[AdjGraph]
    val seen = mutable.HashSet.empty[Seq[Long]]
    val work = mutable.Stack[(AdjGraph, Int)]((g0, 0))
    var pieces = 0L
    var largestPiece = 0
    var depthMax = 0
    var dedupHits = 0L
    while (work.nonEmpty) {
      val (piece, depth) = work.pop()
      depthMax = math.max(depthMax, depth)
      val h = tracer.span("graphops.kcore")(GraphOps.kCore(piece, k))
      if (h.n > 0) {
        val comps = tracer.span("graphops.components")(GraphOps.componentSubgraphs(h))
        for (comp <- comps) {
          stats.globalCutCalls += 1
          val cert = tracer.span("cert")(SparseCertificate.compute(comp, k))
          sink = tracer.span("flownet.build")(new FlowNetwork(cert.graph))
          val cut = tracer.span("globalcut") {
            variant match {
              case Variant.Basic => GlobalCut.find(comp, k, stats)
              case v             => GlobalCutStar.find(comp, k, v, stats)
            }
          }
          cut match {
            case None =>
              if (seen.add(comp.sortedIds.toSeq)) out += comp else dedupHits += 1
            case Some(s) =>
              stats.partitions += 1
              val parts = tracer.span("overlap.partition")(Overlap.partition(comp, s))
              pieces += parts.length
              parts.foreach { p =>
                largestPiece = math.max(largestPiece, p.n)
                work.push((p, depth + 1))
              }
          }
        }
      }
    }
    sink = null
    (out.result(), Counters(pieces, largestPiece, depthMax, dedupHits))
  }
}

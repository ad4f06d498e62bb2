package perfbench

/** Minimal JSON rendering for result lines and result files. Values may be
  * a Map (in its iteration order), an Iterable, String, Boolean, Int, Long,
  * Double, or an Option.
  */
object Json {

  def render(v: Any): String = v match {
    case null | None        => "null"
    case Some(x)            => render(x)
    case s: String          => quote(s)
    case b: Boolean         => b.toString
    case i: Int             => i.toString
    case l: Long            => l.toString
    case d: Double          =>
      require(!d.isNaN && !d.isInfinite, s"cannot render $d as JSON")
      d.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case s: Iterable[_]     => s.iterator.map(render).mkString("[", ", ", "]")
    case other              => throw new IllegalArgumentException(s"cannot render ${other.getClass} as JSON")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}

package repro.core

import repro.graph.{AdjGraph, GraphOps}

/** OVERLAP-PARTITION (Algorithm 1, lines 13–18): remove the cut S, take the
  * connected components of the remainder, and return the induced subgraph of
  * each component *plus a duplicated copy of S* — the cut vertices are the
  * only vertices k-VCCs may share, so they must survive in every part.
  */
object Overlap {

  /** Partition `g` by vertex cut `cut` (local indices). The caller guarantees
    * `cut` is a genuine vertex cut of `g`; this is re-validated (a violation
    * would make the enumeration loop forever on an unsplittable graph).
    */
  def partition(g: AdjGraph, cut: Array[Int]): Vector[AdjGraph] = {
    val inCut = new Array[Boolean](g.n)
    cut.foreach(inCut(_) = true)
    val keep = (0 until g.n).filter(!inCut(_)).toArray
    val remainder = g.induced(keep)
    val comps = GraphOps.connectedComponents(remainder)
    require(
      comps.length >= 2,
      s"OVERLAP-PARTITION: removing ${cut.length} vertices (ids ${cut.map(g.ids).mkString(", ")}) " +
        s"from a piece with n=${g.n}, m=${g.m} left ${comps.length} component(s) — not a cut")
    comps.map { comp =>
      // Map remainder-local indices back to g-local indices, then add S.
      val members = new Array[Int](comp.length + cut.length)
      var i = 0
      while (i < comp.length) { members(i) = keep(comp(i)); i += 1 }
      System.arraycopy(cut, 0, members, comp.length, cut.length)
      g.induced(members)
    }
  }
}

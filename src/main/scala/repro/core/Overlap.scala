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
    * would make the enumeration loop forever on an unsplittable graph). The
    * components of G − S are found on `g` itself, with the cut skipped.
    */
  def partition(g: AdjGraph, cut: Array[Int]): Vector[AdjGraph] = {
    val comps = GraphOps.connectedComponents(g, removed = cut)
    require(
      comps.length >= 2,
      s"OVERLAP-PARTITION: removing ${cut.length} vertices (ids ${cut.map(g.ids).mkString(", ")}) " +
        s"from a piece with n=${g.n}, m=${g.m} left ${comps.length} component(s) — not a cut")
    comps.map(comp => g.induced(Array.concat(comp, cut)))
  }
}

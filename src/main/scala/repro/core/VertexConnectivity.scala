package repro.core

import repro.graph.{AdjGraph, GraphOps}

/** Exact global vertex connectivity κ(G) — the tests' reference, not used
  * by the enumeration.
  *
  * Two-phase scheme (Even / Esfahanian–Hakimi, the same structure as
  * GLOBAL-CUT): pick a min-degree vertex u; any minimum cut either avoids u
  * (then it separates u from some non-neighbor — phase 1 finds it) or
  * contains u (then it separates two neighbors of u — phase 2 finds it,
  * Lemma 4).
  */
object VertexConnectivity {

  /** κ(G): 0 if disconnected or trivial, n−1 for the complete graph. */
  def kappa(g: AdjGraph): Int = {
    val n = g.n
    if (n <= 1) return 0
    if (!GraphOps.isConnected(g)) return 0
    if (g.m.toLong == n.toLong * (n - 1) / 2) return n - 1
    val fn = new FlowNetwork(g)
    val u = g.minDegreeVertex
    var best = n - 1
    // A minimum u–v vertex cut has as many vertices as the maximum flow, so
    // a cut below `best` gives κ(u,v). Phase 1: u versus every non-neighbor.
    var v = 0
    while (v < n) {
      if (v != u && !g.hasEdge(u, v)) {
        val c = fn.locCut(u, v, best).fold(best)(_.length)
        if (c < best) best = c
      }
      v += 1
    }
    // Phase 2: all non-adjacent pairs of neighbors of u.
    val adj = g.adj
    val end = g.offsets(u + 1)
    var i = g.offsets(u)
    while (i < end) {
      var j = i + 1
      while (j < end) {
        if (!g.hasEdge(adj(i), adj(j))) {
          val c = fn.locCut(adj(i), adj(j), best).fold(best)(_.length)
          if (c < best) best = c
        }
        j += 1
      }
      i += 1
    }
    best
  }

  /** Definition 2: k-vertex connected ⇔ |V| > k and κ(G) ≥ k. */
  def isKConnected(g: AdjGraph, k: Int): Boolean = g.n > k && kappa(g) >= k
}

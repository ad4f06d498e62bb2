package repro.graph

import scala.collection.mutable

/** Bulk operations on the local graph kernel: k-core peeling, connected
  * components, BFS, and the cohesion metrics used in the paper's
  * effectiveness evaluation (diameter, edge density, clustering coefficient).
  */
object GraphOps {

  /** k-core: iteratively remove vertices of degree < k (Algorithm 1 line 2).
    *
    * Returns the induced subgraph on the surviving vertices (original ids
    * preserved). Linear-time bucket peel.
    */
  def kCore(g: AdjGraph, k: Int): AdjGraph = {
    if (g.n == 0) return g
    val deg = Array.tabulate(g.n)(g.degree)
    val removed = new Array[Boolean](g.n)
    val queue = new mutable.ArrayDeque[Int]()
    var v = 0
    while (v < g.n) { if (deg(v) < k) { removed(v) = true; queue.append(v) }; v += 1 }
    while (queue.nonEmpty) {
      val u = queue.removeHead()
      g.foreachNeighbor(u) { w =>
        if (!removed(w)) {
          deg(w) -= 1
          if (deg(w) < k) { removed(w) = true; queue.append(w) }
        }
      }
    }
    val keep = (0 until g.n).filter(!removed(_)).toArray
    if (keep.length == g.n) g else g.induced(keep)
  }

  /** Connected components as arrays of local indices (BFS). */
  def connectedComponents(g: AdjGraph): Vector[Array[Int]] = {
    val comp = Array.fill(g.n)(-1)
    val out = Vector.newBuilder[Array[Int]]
    val queue = new mutable.ArrayDeque[Int]()
    var v = 0
    var c = 0
    while (v < g.n) {
      if (comp(v) == -1) {
        val members = mutable.ArrayBuilder.make[Int]
        comp(v) = c
        queue.append(v)
        while (queue.nonEmpty) {
          val u = queue.removeHead()
          members += u
          g.foreachNeighbor(u) { w =>
            if (comp(w) == -1) { comp(w) = c; queue.append(w) }
          }
        }
        out += members.result()
        c += 1
      }
      v += 1
    }
    out.result()
  }

  /** Connected components as induced subgraphs. */
  def componentSubgraphs(g: AdjGraph): Vector[AdjGraph] = {
    val comps = connectedComponents(g)
    if (comps.length == 1) Vector(g) else comps.map(g.induced)
  }

  /** True iff `g` is connected (the empty graph counts as connected). */
  def isConnected(g: AdjGraph): Boolean = g.n <= 1 || connectedComponents(g).length == 1

  /** BFS distances from `src`; -1 for unreachable vertices. */
  def bfsDistances(g: AdjGraph, src: Int): Array[Int] = {
    val dist = Array.fill(g.n)(-1)
    val queue = new mutable.ArrayDeque[Int]()
    dist(src) = 0
    queue.append(src)
    while (queue.nonEmpty) {
      val u = queue.removeHead()
      g.foreachNeighbor(u) { w =>
        if (dist(w) == -1) { dist(w) = dist(u) + 1; queue.append(w) }
      }
    }
    dist
  }

  /** Exact diameter via all-sources BFS — O(n·m), for small (sub)graphs.
    * Returns 0 for graphs with < 2 vertices; requires connectivity.
    */
  def diameter(g: AdjGraph): Int = {
    var best = 0
    var v = 0
    while (v < g.n) {
      val dist = bfsDistances(g, v)
      var i = 0
      while (i < g.n) {
        require(dist(i) >= 0, "diameter on a disconnected graph")
        if (dist(i) > best) best = dist(i)
        i += 1
      }
      v += 1
    }
    best
  }

  /** Edge density 2m / (n(n-1)) — Eq. 4 in the paper. */
  def edgeDensity(g: AdjGraph): Double =
    if (g.n < 2) 0.0 else 2.0 * g.m / (g.n.toDouble * (g.n - 1))

  /** Average local clustering coefficient — Eqs. 5–6 in the paper.
    * Vertices with degree < 2 contribute 0 (the paper's convention for an
    * undefined local coefficient).
    */
  def clusteringCoefficient(g: AdjGraph): Double = {
    if (g.n == 0) return 0.0
    var sum = 0.0
    var u = 0
    while (u < g.n) {
      val d = g.degree(u)
      if (d >= 2) {
        var tri = 0L
        val end = g.offsets(u + 1)
        var i = g.offsets(u)
        while (i < end) {
          var j = i + 1
          while (j < end) {
            if (g.hasEdge(g.adj(i), g.adj(j))) tri += 1
            j += 1
          }
          i += 1
        }
        sum += 2.0 * tri / (d.toDouble * (d - 1))
      }
      u += 1
    }
    sum / g.n
  }

  /** |N(u) ∩ N(v)| with early exit once `atLeast` common neighbors are seen
    * (sorted-merge; used by the strong side-vertex test, Lemma 13).
    */
  def commonNeighborsAtLeast(g: AdjGraph, u: Int, v: Int, atLeast: Int): Boolean = {
    var i = g.offsets(u)
    var j = g.offsets(v)
    val iEnd = g.offsets(u + 1)
    val jEnd = g.offsets(v + 1)
    var c = 0
    while (i < iEnd && j < jEnd && c < atLeast) {
      val a = g.adj(i); val b = g.adj(j)
      if (a == b) { c += 1; i += 1; j += 1 }
      else if (a < b) i += 1
      else j += 1
    }
    c >= atLeast
  }
}

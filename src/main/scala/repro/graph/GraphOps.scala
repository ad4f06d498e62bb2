package repro.graph

/** Bulk operations on the local graph kernel: k-core peeling, connected
  * components, BFS, and the cohesion metrics used in the paper's
  * effectiveness evaluation (diameter, edge density, clustering coefficient).
  */
object GraphOps {

  /** k-core: iteratively remove vertices of degree < k (Algorithm 1 line 2).
    *
    * Returns the induced subgraph on the surviving vertices (original ids
    * preserved). Linear-time peel: a vertex is marked removed when it is
    * pushed, so it is pushed at most once and n stack slots are enough.
    */
  def kCore(g: AdjGraph, k: Int): AdjGraph = {
    val n = g.n
    val off = g.offsets
    val adj = g.adj
    val deg = Array.tabulate(n)(g.degree)
    val removed = new Array[Boolean](n)
    val stack = new Array[Int](n)
    var top = 0
    var v = 0
    while (v < n) { if (deg(v) < k) { removed(v) = true; stack(top) = v; top += 1 }; v += 1 }
    var gone = top
    while (top > 0) {
      top -= 1
      val u = stack(top)
      var i = off(u)
      while (i < off(u + 1)) {
        val w = adj(i)
        if (!removed(w)) {
          deg(w) -= 1
          if (deg(w) < k) { removed(w) = true; stack(top) = w; top += 1; gone += 1 }
        }
        i += 1
      }
    }
    if (gone == 0) return g
    val keep = new Array[Int](n - gone)
    var j = 0
    v = 0
    while (v < n) { if (!removed(v)) { keep(j) = v; j += 1 }; v += 1 }
    g.induced(keep)
  }

  /** Connected components of `g` without the `removed` vertices (local
    * indices), as arrays of local indices of `g` (BFS). Components come in
    * order of their smallest index, each in BFS order from it, so `c(0)` is
    * the component's smallest index. Each BFS fills one segment of `queue`:
    * its component.
    */
  def connectedComponents(g: AdjGraph, removed: Array[Int] = Array.emptyIntArray): Vector[Array[Int]] = {
    val n = g.n
    val off = g.offsets
    val adj = g.adj
    val seen = new Array[Boolean](n)
    var r = 0
    while (r < removed.length) { seen(removed(r)) = true; r += 1 }
    val queue = new Array[Int](n)
    val out = Vector.newBuilder[Array[Int]]
    var qt = 0
    var root = 0
    while (root < n) {
      if (!seen(root)) {
        val start = qt
        seen(root) = true
        queue(qt) = root; qt += 1
        var qh = start
        while (qh < qt) {
          val u = queue(qh); qh += 1
          var i = off(u)
          while (i < off(u + 1)) {
            val w = adj(i)
            if (!seen(w)) { seen(w) = true; queue(qt) = w; qt += 1 }
            i += 1
          }
        }
        out += java.util.Arrays.copyOfRange(queue, start, qt)
      }
      root += 1
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
    val off = g.offsets
    val adj = g.adj
    val dist = Array.fill(g.n)(-1)
    val queue = new Array[Int](g.n)
    dist(src) = 0
    queue(0) = src
    var qh = 0
    var qt = 1
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var i = off(u)
      while (i < off(u + 1)) {
        val w = adj(i)
        if (dist(w) == -1) { dist(w) = dist(u) + 1; queue(qt) = w; qt += 1 }
        i += 1
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

package repro.graph

/** Compact immutable undirected graph in CSR form.
  *
  * Vertices are addressed by dense local indices `0 until n`; `ids(v)` maps a
  * local index back to the original (global, `Long`) vertex id so subgraphs
  * produced during the recursive partitioning keep their identity. Adjacency
  * lists are sorted, self-loops dropped, parallel edges deduplicated.
  */
final class AdjGraph private[graph] (
    val ids: Array[Long],
    val offsets: Array[Int],
    val adj: Array[Int])
    extends Serializable {

  /** Number of vertices. */
  def n: Int = ids.length

  /** Number of undirected edges. */
  def m: Int = adj.length / 2

  /** Degree of local vertex `v`. */
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Apply `f` to every neighbor of `v` without allocation. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(adj(i)); i += 1 }
  }

  /** Apply `f(s, t)` once per edge {x, w} with x < w, where `s` is the slot
    * of w in x's list and `t` the slot of x in w's list. Lists are sorted and
    * x runs upwards, so t is always w's next slot: one cursor pass.
    */
  def foreachTwinSlots(f: (Int, Int) => Unit): Unit = {
    val cursor = java.util.Arrays.copyOf(offsets, n)
    var x = 0
    while (x < n) {
      var s = offsets(x)
      while (s < offsets(x + 1)) {
        val w = adj(s)
        if (w > x) { f(s, cursor(w)); cursor(w) += 1 }
        s += 1
      }
      x += 1
    }
  }

  /** True iff edge (u,v) exists (binary search on the sorted adjacency). */
  def hasEdge(u: Int, v: Int): Boolean = {
    var lo = offsets(u)
    var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = adj(mid)
      if (x == v) return true
      else if (x < v) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Local index of a minimum-degree vertex (n must be > 0). */
  def minDegreeVertex: Int = {
    var best = 0
    var bd = degree(0)
    var v = 1
    while (v < n) {
      val d = degree(v)
      if (d < bd) { bd = d; best = v }
      v += 1
    }
    best
  }

  /** Maximum degree (0 for the empty graph). */
  def maxDegree: Int = {
    var best = 0
    var v = 0
    while (v < n) { val d = degree(v); if (d > best) best = d; v += 1 }
    best
  }

  /** Sorted original vertex ids. */
  def sortedIds: Array[Long] = { val a = ids.clone(); java.util.Arrays.sort(a); a }

  /** Induced subgraph on the given local vertex indices (original ids kept). */
  def induced(keep: Array[Int]): AdjGraph = {
    val sorted = keep.clone()
    java.util.Arrays.sort(sorted)
    val map = Array.fill(n)(-1) // parent index → new index, −1 if dropped
    var i = 0
    while (i < sorted.length) { map(sorted(i)) = i; i += 1 }
    val newIds = sorted.map(ids)
    val degs = new Array[Int](sorted.length)
    i = 0
    while (i < sorted.length) {
      val v = sorted(i)
      foreachNeighbor(v) { w => if (map(w) >= 0) degs(i) += 1 }
      i += 1
    }
    val newOffsets = new Array[Int](sorted.length + 1)
    i = 0
    while (i < sorted.length) { newOffsets(i + 1) = newOffsets(i) + degs(i); i += 1 }
    val newAdj = new Array[Int](newOffsets(sorted.length))
    val cursor = newOffsets.clone()
    i = 0
    while (i < sorted.length) {
      val v = sorted(i)
      foreachNeighbor(v) { w =>
        val j = map(w)
        if (j >= 0) { newAdj(cursor(i)) = j; cursor(i) += 1 }
      }
      i += 1
    }
    // Neighbor lists stay sorted because `sorted` preserves index order.
    new AdjGraph(newIds, newOffsets, newAdj)
  }

  override def toString: String = s"AdjGraph(n=$n, m=$m)"
}

object AdjGraph {

  /** Build from an edge list over original `Long` ids.
    *
    * Self-loops are dropped, duplicates (in either direction) merged.
    * `extraIds` adds isolated vertices not covered by any edge; an extra id
    * that is also an endpoint is not duplicated.
    *
    * The result is the unique CSR of the edge set: `ids` sorted ascending,
    * each adjacency list sorted and duplicate-free. It is built on primitive
    * arrays in O(m log m) time, as CSR builders such as Ligra do (Shun &
    * Blelloch, PPoPP 2013): copy the endpoints into two `Long` arrays in one
    * pass, sort them together with `extraIds` and compact to the unique ids,
    * map each endpoint to its index by binary search, fill the lists by
    * counting, then sort each list and squeeze out its duplicates in place.
    */
  def fromEdges(edges: IterableOnce[(Long, Long)], extraIds: IterableOnce[Long] = Nil): AdjGraph = {
    // 1. Endpoints of the non-loop edges, in input order.
    var src = new Array[Long](math.max(edges.knownSize, 16))
    var dst = new Array[Long](src.length)
    var m = 0
    val it = edges.iterator
    while (it.hasNext) {
      val e = it.next()
      if (e._1 != e._2) {
        if (m == src.length) {
          src = java.util.Arrays.copyOf(src, 2 * m)
          dst = java.util.Arrays.copyOf(dst, 2 * m)
        }
        src(m) = e._1; dst(m) = e._2
        m += 1
      }
    }
    // 2. Sorted unique ids over both endpoint columns and `extraIds`.
    val extra = extraIds.iterator.toArray
    val all = new Array[Long](2 * m + extra.length)
    System.arraycopy(src, 0, all, 0, m)
    System.arraycopy(dst, 0, all, m, m)
    System.arraycopy(extra, 0, all, 2 * m, extra.length)
    java.util.Arrays.sort(all)
    var n = 0
    var i = 0
    while (i < all.length) {
      if (n == 0 || all(i) != all(n - 1)) { all(n) = all(i); n += 1 }
      i += 1
    }
    val ids = java.util.Arrays.copyOf(all, n)
    // 3. Endpoints as local indices.
    val su = new Array[Int](m)
    val du = new Array[Int](m)
    i = 0
    while (i < m) {
      su(i) = java.util.Arrays.binarySearch(ids, src(i))
      du(i) = java.util.Arrays.binarySearch(ids, dst(i))
      i += 1
    }
    // 4. Counting CSR, both directions of every edge, duplicates included.
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < m) { offsets(su(i) + 1) += 1; offsets(du(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { offsets(i + 1) += offsets(i); i += 1 }
    val adj = new Array[Int](2 * m)
    val cursor = java.util.Arrays.copyOf(offsets, n)
    i = 0
    while (i < m) {
      val u = su(i); val v = du(i)
      adj(cursor(u)) = v; cursor(u) += 1
      adj(cursor(v)) = u; cursor(v) += 1
      i += 1
    }
    // 5. Sort each list and drop its adjacent duplicates, compacting the
    // lists leftwards in place; `offsets(v + 1)` is read before it is moved.
    var w = 0
    var start = 0
    var v = 0
    while (v < n) {
      val end = offsets(v + 1)
      java.util.Arrays.sort(adj, start, end)
      var j = start
      while (j < end) {
        if (j == start || adj(j) != adj(j - 1)) { adj(w) = adj(j); w += 1 }
        j += 1
      }
      offsets(v + 1) = w
      start = end
      v += 1
    }
    new AdjGraph(ids, offsets, if (w == adj.length) adj else java.util.Arrays.copyOf(adj, w))
  }

  /** Build directly from pre-validated CSR arrays. */
  private[repro] def unsafe(ids: Array[Long], offsets: Array[Int], adj: Array[Int]): AdjGraph =
    new AdjGraph(ids, offsets, adj)
}

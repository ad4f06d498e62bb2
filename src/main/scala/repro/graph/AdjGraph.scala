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
    val nk = sorted.length
    val map = new Array[Int](n) // parent index → new index + 1, 0 if dropped
    val newIds = new Array[Long](nk)
    var i = 0
    while (i < nk) { val v = sorted(i); map(v) = i + 1; newIds(i) = ids(v); i += 1 }
    val newOffsets = new Array[Int](nk + 1)
    i = 0
    while (i < nk) {
      var d = 0
      var s = offsets(sorted(i))
      val end = offsets(sorted(i) + 1)
      while (s < end) { if (map(adj(s)) != 0) d += 1; s += 1 }
      newOffsets(i + 1) = newOffsets(i) + d
      i += 1
    }
    val newAdj = new Array[Int](newOffsets(nk))
    var c = 0
    i = 0
    while (i < nk) {
      var s = offsets(sorted(i))
      val end = offsets(sorted(i) + 1)
      while (s < end) { val j = map(adj(s)); if (j != 0) { newAdj(c) = j - 1; c += 1 }; s += 1 }
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
    * each adjacency list sorted and duplicate-free, so every input order of
    * the same edge set gives the same arrays. The edges are copied into one
    * interleaved `Long` array in one pass, and the CSR is built from it as
    * `fromPairs` describes.
    */
  def fromEdges(edges: IterableOnce[(Long, Long)], extraIds: IterableOnce[Long] = Nil): AdjGraph = {
    var pairs = new Array[Long](2 * math.max(edges.knownSize, 8))
    var m = 0
    val it = edges.iterator
    while (it.hasNext) {
      val e = it.next()
      if (2 * m == pairs.length) pairs = java.util.Arrays.copyOf(pairs, 2 * pairs.length)
      pairs(2 * m) = e._1; pairs(2 * m + 1) = e._2
      m += 1
    }
    build(pairs, m, extraIds.iterator.toArray)
  }

  /** Build from interleaved `(src, dst)` pairs: edge i is
    * `(pairs(2i), pairs(2i + 1))`. The result equals `fromEdges` on the same
    * pairs, array for array.
    *
    * There is no comparison sort over the edges, as in the counting-based
    * CSR builder of the GAP Benchmark Suite (Beamer, Asanović & Patterson,
    * arXiv:1508.03619, 2015). With m pairs and n distinct ids, it costs
    * O(m + n log n):
    *   1. an open-addressing hash table gives each endpoint of a non-loop
    *      pair a provisional index, in order of first appearance: one probe
    *      per endpoint;
    *   2. only the n unique ids are sorted, and each is ranked by one probe;
    *   3. a counting-sort scatter buckets the arcs, both directions of every
    *      pair, by target;
    *   4. a second scatter walks the targets in ascending order into their
    *      sources' lists, so every list comes out sorted, and adjacent
    *      duplicates are squeezed out in place.
    */
  def fromPairs(pairs: Array[Long]): AdjGraph = {
    require(pairs.length % 2 == 0, s"fromPairs needs an even number of ids, got ${pairs.length}")
    build(pairs, pairs.length / 2, Array.emptyLongArray)
  }

  /** The CSR of the first `np` pairs of `pairs` plus the isolated `extra`. */
  private def build(pairs: Array[Long], np: Int, extra: Array[Long]): AdjGraph = {
    // 1. Provisional indices of the endpoints of the non-loop pairs.
    val index = new IdIndex(np)
    val su = new Array[Int](np)
    val du = new Array[Int](np)
    var m = 0
    var i = 0
    while (i < np) {
      val a = pairs(2 * i)
      val b = pairs(2 * i + 1)
      if (a != b) { su(m) = index(a); du(m) = index(b); m += 1 }
      i += 1
    }
    i = 0
    while (i < extra.length) { index(extra(i)); i += 1 }
    // 2. The sorted unique ids; `rank` maps a provisional index to its final one.
    val ids = index.keys
    java.util.Arrays.sort(ids)
    val n = ids.length
    val rank = new Array[Int](n)
    i = 0
    while (i < n) { rank(index(ids(i))) = i; i += 1 }
    // 3. Degrees, duplicates included; a vertex is the target of as many arcs
    // as it is the source of, so one `offsets` serves both scatters.
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < m) {
      su(i) = rank(su(i)); du(i) = rank(du(i))
      offsets(su(i) + 1) += 1; offsets(du(i) + 1) += 1
      i += 1
    }
    i = 0
    while (i < n) { offsets(i + 1) += offsets(i); i += 1 }
    // 4. Arcs bucketed by target: `from` holds each arc's source.
    val from = new Array[Int](2 * m)
    val cursor = java.util.Arrays.copyOf(offsets, n)
    i = 0
    while (i < m) {
      val u = su(i); val v = du(i)
      from(cursor(v)) = u; cursor(v) += 1
      from(cursor(u)) = v; cursor(u) += 1
      i += 1
    }
    // 5. Targets in ascending order into their sources' lists.
    val adj = new Array[Int](2 * m)
    System.arraycopy(offsets, 0, cursor, 0, n)
    var t = 0
    while (t < n) {
      var j = offsets(t)
      while (j < offsets(t + 1)) { val s = from(j); adj(cursor(s)) = t; cursor(s) += 1; j += 1 }
      t += 1
    }
    // 6. Drop each sorted list's adjacent duplicates, compacting the lists
    // leftwards in place; `offsets(v + 1)` is read before it is moved.
    var w = 0
    var start = 0
    var v = 0
    while (v < n) {
      val end = offsets(v + 1)
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

  /** The 64-bit finaliser of MurmurHash3: every input bit moves every output
    * bit, so the low bits alone can pick a slot of a power-of-two table.
    */
  private[repro] def mix(x: Long): Long = {
    var h = x
    h ^= h >>> 33; h *= 0xff51afd7ed558ccdL
    h ^= h >>> 33; h *= 0xc4ceb9fe1a85ec53L
    h ^ (h >>> 33)
  }

  /** Dense indices `0 until size` for `Long` ids, in order of first
    * appearance: open addressing with linear probing over a power-of-two
    * table. It starts with more slots than `expected` and doubles whenever
    * it is half full.
    */
  private final class IdIndex(expected: Int) {
    private var mask = Integer.highestOneBit(math.max(expected, 8)) * 2 - 1
    private var slotIds = new Array[Long](mask + 1)
    private var slotIndex = new Array[Int](mask + 1) // index + 1; 0 marks an empty slot
    private var size = 0

    /** The index of `id`, which is the next free one if `id` is new. */
    def apply(id: Long): Int = {
      val i = slot(id)
      if (slotIndex(i) != 0) slotIndex(i) - 1
      else {
        slotIds(i) = id; size += 1; slotIndex(i) = size
        if (2 * size > mask) grow()
        size - 1
      }
    }

    /** The ids held, in no particular order. */
    def keys: Array[Long] = {
      val out = new Array[Long](size)
      var at = 0
      var i = 0
      while (i <= mask) { if (slotIndex(i) != 0) { out(at) = slotIds(i); at += 1 }; i += 1 }
      out
    }

    /** The slot holding `id`, or the empty slot where it belongs. */
    private def slot(id: Long): Int = {
      var i = mix(id).toInt & mask
      while (slotIndex(i) != 0 && slotIds(i) != id) i = (i + 1) & mask
      i
    }

    private def grow(): Unit = {
      val (oldIds, oldIndex) = (slotIds, slotIndex)
      mask = 2 * mask + 1
      slotIds = new Array[Long](mask + 1)
      slotIndex = new Array[Int](mask + 1)
      var j = 0
      while (j < oldIds.length) {
        if (oldIndex(j) != 0) {
          val i = slot(oldIds(j))
          slotIds(i) = oldIds(j); slotIndex(i) = oldIndex(j)
        }
        j += 1
      }
    }
  }
}

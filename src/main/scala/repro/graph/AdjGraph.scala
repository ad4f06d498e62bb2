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
    * There is no comparison sort over the whole edge list, only over each
    * vertex's list, as in the counting-based CSR builder of the GAP Benchmark
    * Suite (Beamer, Asanović & Patterson, arXiv:1508.03619, 2015), which
    * also builds in parallel. With m pairs, n distinct ids, c chunks and
    * lists of d entries, it costs O(m + c·n + n log n + Σ d log d):
    *   1. the endpoints of the non-loop pairs are bucketed by the top bits of
    *      their hash into partitions of about 8k endpoints, a radix
    *      partitioning before hashing (Manegold, Boncz & Kersten, IEEE TKDE
    *      14(4), 2002);
    *   2. each partition's own open-addressing table, small enough to stay in
    *      a core's cache, gives its ids local indices: one probe per endpoint;
    *   3. only the n unique ids are sorted, each ranked by one probe, and a
    *      second walk over the endpoints, which meets each partition's
    *      entries in the order step 1 wrote them, reads each one's rank;
    *   4. `fromArcs` scatters each arc, both directions of every pair, into
    *      its target's list by a counting sort;
    *   5. each list is sorted in place and its adjacent duplicates are
    *      squeezed out, per range of vertices.
    * Steps 1 and 4 are the same stable counting sort: each chunk of the input
    * counts its items per bucket and writes them after the earlier chunks'
    * items, so every bucket keeps the input order a sequential pass gives.
    * The chunks run as one parallel stream on the JVM's common pool, also
    * when the caller is a Spark task. An input of fewer than 2^17 endpoints
    * and extra ids is one chunk and runs inline on the caller. The chunk and
    * partition counts follow from the input size, not from the number of
    * cores.
    */
  def fromPairs(pairs: Array[Long]): AdjGraph = {
    require(pairs.length % 2 == 0, s"fromPairs needs an even number of ids, got ${pairs.length}")
    build(pairs, pairs.length / 2, Array.emptyLongArray)
  }

  /** Endpoints and extra ids per chunk (arc slots in `fromArcs`); with fewer
    * than two chunks' worth the build runs inline as one chunk. The chunk count is capped because the
    * counting sort over vertices keeps one histogram of n counters per chunk.
    */
  private final val ChunkItems = 1 << 16
  private final val MaxChunks = 8

  /** Endpoints and extra ids per partition of the id index, about what keeps
    * a partition's table in a core's cache.
    */
  private final val PartitionItems = 1 << 13

  /** The CSR of the first `np` pairs of `pairs` plus the isolated `extra`. */
  private def build(pairs: Array[Long], np: Int, extra: Array[Long]): AdjGraph = {
    // Slot 2i + e is endpoint e of pair i, and slot `slots + j` is extra(j).
    val slots = 2 * np
    val items = slots + extra.length
    val chunks = math.min(MaxChunks, math.max(1, items / ChunkItems))
    val par = chunks > 1
    def bound(c: Int, size: Int): Int = (c.toLong * size / chunks).toInt // chunk c is [bound(c), bound(c + 1))
    def idAt(s: Int): Long = if (s < slots) pairs(s) else extra(s - slots)
    def isLoop(s: Int): Boolean = s < slots && pairs(s) == pairs(s ^ 1)

    // 1. The endpoints of non-loop pairs and the extra ids, bucketed by the
    // top bits of their hash (`>>> 64` does not shift, hence the mask).
    val bits = 31 - Integer.numberOfLeadingZeros(math.max(1, items / PartitionItems))
    val parts = 1 << bits
    def partOf(id: Long): Int = (mix(id) >>> (64 - bits)).toInt & (parts - 1)
    val (partStart, partCursor) = cursors(chunks, parts, par) { (c, hist, at) =>
      var s = bound(c, items)
      val end = bound(c + 1, items)
      while (s < end) { if (!isLoop(s)) hist(at + partOf(idAt(s))) += 1; s += 1 }
    }
    val partId = new Array[Long](partStart(parts))
    val replay = partCursor.clone() // for the second walk in step 3
    tasks(chunks, par) { c =>
      var s = bound(c, items)
      val end = bound(c + 1, items)
      while (s < end) {
        if (!isLoop(s)) {
          val id = idAt(s)
          val b = c * parts + partOf(id)
          partId(partCursor(b)) = id; partCursor(b) += 1
        }
        s += 1
      }
    }
    // 2. Local indices per partition, from a table sized for a quarter of the
    // partition's entries (an id is an endpoint of several pairs); the unique
    // counts, summed in partition order, give each partition's base.
    val index = new Array[IdIndex](parts)
    val local = new Array[Int](partId.length)
    val base = new Array[Int](parts + 1)
    tasks(parts, par) { p =>
      val t = new IdIndex((partStart(p + 1) - partStart(p)) / 4)
      var j = partStart(p)
      val end = partStart(p + 1)
      while (j < end) { local(j) = t(partId(j)); j += 1 }
      index(p) = t; base(p + 1) = t.size
    }
    accumulate(base)
    // 3. The sorted unique ids; `rank` maps base + local index to the final
    // index. Every id is in its table, so the probes only read.
    val n = base(parts)
    val ids = new Array[Long](n)
    tasks(parts, par)(p => index(p).keysTo(ids, base(p)))
    if (par) java.util.Arrays.parallelSort(ids) else java.util.Arrays.sort(ids)
    val rank = new Array[Int](n)
    tasks(chunks, par) { c =>
      var r = bound(c, n)
      val end = bound(c + 1, n)
      while (r < end) { val p = partOf(ids(r)); rank(base(p) + index(p)(ids(r))) = r; r += 1 }
    }
    // Each endpoint's final index: a second walk over each chunk's slots
    // meets the entries of a partition in the order the scatter wrote them.
    val ends = new Array[Int](slots) // -1 at a loop
    tasks(chunks, par) { c =>
      var s = bound(c, items)
      val end = math.min(bound(c + 1, items), slots)
      while (s < end) {
        if (isLoop(s)) ends(s) = -1
        else {
          val p = partOf(pairs(s))
          val b = c * parts + p
          ends(s) = rank(base(p) + local(replay(b))); replay(b) += 1
        }
        s += 1
      }
    }
    // 4 and 5: the CSR of the arcs.
    fromArcs(ids, ends, slots)
  }

  /** The unique CSR over the vertices `0 until ids.length` of the first
    * `slots` arcs of `ends`: arc a runs from `ends(a ^ 1)` to `ends(a)`, and
    * -1 marks an arc that is left out (a self-loop). Every arc's twin must be
    * there too, so the graph is undirected. A counting-sort scatter puts each
    * arc's source into its target's list; each list is then sorted in place
    * and its adjacent duplicates are squeezed out. O(s + c·n + Σ d log d) for
    * s slots, c chunks and lists of d entries.
    *
    * Fewer than 2^17 slots are one chunk, run inline on the caller. More run
    * as one parallel stream, which runs on the pool of the calling thread if
    * that is a fork/join worker (a `KVCCEnumerator` task's pool), else on the
    * JVM's common pool.
    */
  private[repro] def fromArcs(ids: Array[Long], ends: Array[Int], slots: Int): AdjGraph = {
    val n = ids.length
    val chunks = math.min(MaxChunks, math.max(1, slots / ChunkItems))
    val par = chunks > 1
    def bound(c: Int, size: Int): Int = (c.toLong * size / chunks).toInt
    // A vertex is the target of as many arcs as it is the source of, so the
    // bucket starts are the list offsets.
    val (offsets, cursor) = cursors(chunks, n, par) { (c, hist, at) =>
      var a = bound(c, slots)
      val end = bound(c + 1, slots)
      while (a < end) { if (ends(a) >= 0) hist(at + ends(a)) += 1; a += 1 }
    }
    val adj = new Array[Int](offsets(n))
    tasks(chunks, par) { c =>
      var a = bound(c, slots)
      val end = bound(c + 1, slots)
      while (a < end) {
        val v = ends(a)
        if (v >= 0) { val b = c * n + v; adj(cursor(b)) = ends(a ^ 1); cursor(b) += 1 }
        a += 1
      }
    }
    // Sort each list and drop its adjacent duplicates: chunk c takes the
    // vertices `first(c) until first(c + 1)`, which hold about equal arcs, and
    // compacts their lists leftwards from the chunk's start; `offsets(v + 1)`
    // is read before it is moved. Then, if anything was dropped, copy the
    // chunks together.
    val first = Array.tabulate(chunks + 1)(c => if (c == chunks) n else firstAtOrAfter(offsets, n, bound(c, offsets(n))))
    val start = first.map(offsets(_))
    val kept = new Array[Int](chunks + 1)
    tasks(chunks, par) { c =>
      var w = start(c)
      var j = start(c)
      var v = first(c)
      while (v < first(c + 1)) {
        val listStart = j
        val end = offsets(v + 1)
        java.util.Arrays.sort(adj, listStart, end)
        while (j < end) {
          if (j == listStart || adj(j) != adj(j - 1)) { adj(w) = adj(j); w += 1 }
          j += 1
        }
        offsets(v + 1) = w
        v += 1
      }
      kept(c + 1) = w - start(c)
    }
    accumulate(kept)
    if (kept(chunks) == adj.length) new AdjGraph(ids, offsets, adj)
    else {
      val squeezed = new Array[Int](kept(chunks))
      tasks(chunks, par) { c =>
        System.arraycopy(adj, start(c), squeezed, kept(c), kept(c + 1) - kept(c))
        var v = first(c)
        while (v < first(c + 1)) { offsets(v + 1) += kept(c) - start(c); v += 1 }
      }
      new AdjGraph(ids, offsets, squeezed)
    }
  }

  /** Turns counts into running sums in place. */
  private def accumulate(a: Array[Int]): Unit = {
    var i = 1
    while (i < a.length) { a(i) += a(i - 1); i += 1 }
  }

  /** The counting pass of a stable parallel counting sort of `chunks` chunks
    * of items into `buckets` buckets: `count(c, hist, c * buckets)` adds the
    * number of chunk c's items in bucket b to `hist(c * buckets + b)`. Returns
    * the bucket starts, `buckets + 1` of them, and `hist` turned into cursors:
    * chunk c writes its items of bucket b in input order from
    * `hist(c * buckets + b)` on, after those of the earlier chunks, so every
    * bucket holds its items in input order, as a sequential scatter does.
    */
  private def cursors(chunks: Int, buckets: Int, par: Boolean)(
      count: (Int, Array[Int], Int) => Unit): (Array[Int], Array[Int]) = {
    val hist = new Array[Int](chunks * buckets)
    tasks(chunks, par)(c => count(c, hist, c * buckets))
    def bound(r: Int): Int = (r.toLong * buckets / chunks).toInt
    val starts = new Array[Int](buckets + 1)
    tasks(chunks, par) { r =>
      var b = bound(r)
      val end = bound(r + 1)
      while (b < end) {
        var c = 0
        while (c < chunks) { starts(b + 1) += hist(c * buckets + b); c += 1 }
        b += 1
      }
    }
    accumulate(starts)
    tasks(chunks, par) { r =>
      var b = bound(r)
      val end = bound(r + 1)
      while (b < end) {
        var at = starts(b)
        var c = 0
        while (c < chunks) { val k = c * buckets + b; val x = hist(k); hist(k) = at; at += x; c += 1 }
        b += 1
      }
    }
    (starts, hist)
  }

  /** Runs `f(0)` … `f(count - 1)`: as one parallel stream when `par` (on the
    * caller's fork/join pool if it runs in one, else on the common pool), else
    * inline and in order.
    */
  private def tasks(count: Int, par: Boolean)(f: Int => Unit): Unit =
    if (par) java.util.stream.IntStream.range(0, count).parallel().forEach(i => f(i))
    else { var i = 0; while (i < count) { f(i); i += 1 } }

  /** The least `t <= n` with `offsets(t) >= x`; `offsets` ascends. */
  private def firstAtOrAfter(offsets: Array[Int], n: Int, x: Int): Int = {
    var lo = 0
    var hi = n
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (offsets(mid) < x) lo = mid + 1 else hi = mid }
    lo
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
    private var count = 0

    /** The number of ids held. */
    def size: Int = count

    /** The index of `id`, which is the next free one if `id` is new. */
    def apply(id: Long): Int = {
      val i = slot(id)
      if (slotIndex(i) != 0) slotIndex(i) - 1
      else {
        slotIds(i) = id; count += 1; slotIndex(i) = count
        if (2 * count > mask) grow()
        count - 1
      }
    }

    /** Writes each id held at `out(at + its index)`. */
    def keysTo(out: Array[Long], at: Int): Unit = {
      var i = 0
      while (i <= mask) { if (slotIndex(i) != 0) out(at + slotIndex(i) - 1) = slotIds(i); i += 1 }
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

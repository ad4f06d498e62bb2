package repro.graph

import scala.collection.mutable

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

  /** Minimum degree (0 for the empty graph). */
  def minDegree: Int = if (n == 0) 0 else degree(minDegreeVertex)

  /** Maximum degree (0 for the empty graph). */
  def maxDegree: Int = {
    var best = 0
    var v = 0
    while (v < n) { val d = degree(v); if (d > best) best = d; v += 1 }
    best
  }

  /** Canonical (idLow < idHigh) edge list in original ids. */
  def edgeList: Vector[(Long, Long)] = {
    val buf = Vector.newBuilder[(Long, Long)]
    var u = 0
    while (u < n) {
      foreachNeighbor(u) { v =>
        if (u < v) {
          val a = ids(u); val b = ids(v)
          buf += (if (a < b) (a, b) else (b, a))
        }
      }
      u += 1
    }
    buf.result()
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
    * `extraIds` adds isolated vertices not covered by any edge.
    */
  def fromEdges(edges: IterableOnce[(Long, Long)], extraIds: IterableOnce[Long] = Nil): AdjGraph = {
    val es = edges.iterator.filter { case (a, b) => a != b }.map {
      case (a, b) => if (a < b) (a, b) else (b, a)
    }.toArray.distinct
    val idSet = mutable.SortedSet.empty[Long]
    es.foreach { case (a, b) => idSet += a; idSet += b }
    extraIds.iterator.foreach(idSet += _)
    val ids = idSet.toArray
    val index = new mutable.HashMap[Long, Int]()
    var i = 0
    while (i < ids.length) { index.put(ids(i), i); i += 1 }
    val n = ids.length
    val degs = new Array[Int](n)
    es.foreach { case (a, b) => degs(index(a)) += 1; degs(index(b)) += 1 }
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + degs(i); i += 1 }
    val adjArr = new Array[Int](offsets(n))
    val cursor = offsets.clone()
    es.foreach { case (a, b) =>
      val u = index(a); val v = index(b)
      adjArr(cursor(u)) = v; cursor(u) += 1
      adjArr(cursor(v)) = u; cursor(v) += 1
    }
    // Sort each adjacency list.
    i = 0
    while (i < n) { java.util.Arrays.sort(adjArr, offsets(i), offsets(i + 1)); i += 1 }
    new AdjGraph(ids, offsets, adjArr)
  }

  /** Build from local-index pairs; vertex ids default to `0L until n`. */
  def fromLocalEdges(n: Int, edges: Seq[(Int, Int)], ids: Array[Long] = null): AdjGraph = {
    val theIds = if (ids == null) Array.tabulate(n)(_.toLong) else ids
    require(theIds.length == n, s"ids.length=${theIds.length} != n=$n")
    val g = fromEdges(edges.map { case (a, b) => (theIds(a), theIds(b)) }, theIds)
    g
  }

  /** The empty graph. */
  val empty: AdjGraph = new AdjGraph(Array.emptyLongArray, Array(0), Array.emptyIntArray)

  /** Build directly from pre-validated CSR arrays (internal/test use). */
  def unsafe(ids: Array[Long], offsets: Array[Int], adj: Array[Int]): AdjGraph =
    new AdjGraph(ids, offsets, adj)
}

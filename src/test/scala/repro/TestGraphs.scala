package repro

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core.KVCCEnumerator
import repro.gen.GraphGen
import repro.gen.GraphGen.{BlockSpec, Planted, plantedBlocks}
import repro.graph.AdjGraph
import repro.spark.Block
import scala.util.Random

/** Graph builders and views that only tests use. */
object TestGraphs {

  /** The empty graph. */
  val empty: AdjGraph = AdjGraph.fromEdges(Nil)

  implicit final class GraphViews(private val g: AdjGraph) extends AnyVal {

    /** Minimum degree (0 for the empty graph). */
    def minDegree: Int = if (g.n == 0) 0 else g.degree(g.minDegreeVertex)

    /** Canonical (idLow < idHigh) edge list in original ids. */
    def edgeList: Vector[(Long, Long)] = {
      val buf = Vector.newBuilder[(Long, Long)]
      for (u <- 0 until g.n) g.foreachNeighbor(u) { v =>
        if (u < v) {
          val a = g.ids(u); val b = g.ids(v)
          buf += (if (a < b) (a, b) else (b, a))
        }
      }
      buf.result()
    }
  }

  /** Erdős–Rényi G(n, p) on ids `offset until offset+n`. */
  def erdosRenyi(n: Int, p: Double, seed: Long, offset: Long = 0L): Vector[(Long, Long)] =
    GraphGen.erdosRenyi((0 until n).map(offset + _), p, new Random(seed))

  /** Canonical form: sorted vertex-id list per k-VCC, in
    * `KVCCEnumerator.canonicalOrder` — used to compare results across
    * variants / implementations.
    */
  def canonical(result: Seq[AdjGraph]): Vector[Vector[Long]] =
    result.map(_.sortedIds.toVector).sorted(KVCCEnumerator.canonicalOrder).toVector

  /** Small planted instance: `blocks` near-clique blocks of size `k+3`,
    * chained with overlaps of size `k-1`.
    */
  def plantedTiny(k: Int, blocks: Int, seed: Long): Planted = {
    val specs = Vector.fill(blocks)(BlockSpec(size = k + 3, p = 0.95, overlap = math.max(1, k - 1)))
    plantedBlocks(specs, new Random(seed))
  }

  /** Build from local-index pairs; vertex ids default to `0L until n`. */
  def fromLocalEdges(n: Int, edges: Seq[(Int, Int)], ids: Array[Long] = null): AdjGraph = {
    val theIds = if (ids == null) Array.tabulate(n)(_.toLong) else ids
    require(theIds.length == n, s"ids.length=${theIds.length} != n=$n")
    AdjGraph.fromEdges(edges.map { case (a, b) => (theIds(a), theIds(b)) }, theIds)
  }

  /** Collect a canonical edge table into the local graph kernel. */
  def toLocal(canonical: DataFrame): AdjGraph =
    AdjGraph.fromEdges(canonical.collect().map(r => (r.getLong(0), r.getLong(1))))

  /** The live edges of a block partitioning, as a local graph. Fails if
    * `Block.foreachLiveEdge` visits an edge more than once over all blocks.
    */
  def toLocal(blocks: RDD[Block]): AdjGraph = {
    val edges = blocks.flatMap { b =>
      val buf = Vector.newBuilder[(Long, Long)]
      b.foreachLiveEdge((v, w) => buf += (b.graph.ids(v) -> b.graph.ids(w)))
      buf.result()
    }.collect().map { case (a, b) => (a min b, a max b) }
    val twice = edges.diff(edges.distinct)
    assert(twice.isEmpty, s"live edges visited more than once: ${twice.distinct.take(5).mkString(", ")}")
    AdjGraph.fromEdges(edges)
  }

  /** Synchronous peeling, the reference for `KCoreSpark.prune`: each of at
    * most `rounds` rounds removes, all at once, every vertex with fewer than
    * `k` live neighbours. Returns the live edges as a graph (a vertex left
    * with no live edge is dropped, as from any edge list) and the number of
    * rounds that removed a vertex; with `rounds` unbounded, the graph is the
    * k-core and the count is the number of rounds an exact peel needs.
    */
  def peelRounds(g: AdjGraph, k: Int, rounds: Int = Int.MaxValue): (AdjGraph, Int) = {
    val alive = Array.fill(g.n)(true)
    def live(v: Int): Int = { var d = 0; g.foreachNeighbor(v)(w => if (alive(w)) d += 1); d }
    def frontier = (0 until g.n).filter(v => alive(v) && live(v) < k)
    var peeled = 0
    var next = frontier
    while (peeled < rounds && next.nonEmpty) {
      next.foreach(alive(_) = false)
      peeled += 1
      next = frontier
    }
    val edges = for (v <- 0 until g.n if alive(v); s <- g.offsets(v) until g.offsets(v + 1)
                     if v < g.adj(s) && alive(g.adj(s))) yield (g.ids(v), g.ids(g.adj(s)))
    (AdjGraph.fromEdges(edges), peeled)
  }

  /** Each id `a` moved outside the `Int` range: to `a·7919 − 2^40` (negative)
    * when `a` is even, to `2^40 + a·7919` when it is odd.
    */
  def farIds(edges: Seq[(Long, Long)]): Vector[(Long, Long)] = {
    def id(a: Long): Long = if (a % 2 == 0) a * 7919 - (1L << 40) else (1L << 40) + a * 7919
    edges.map { case (a, b) => (id(a), id(b)) }.toVector
  }

  /** The same graph with each edge also reversed, three repeated and five
    * self-loops added.
    */
  def messy(edges: Seq[(Long, Long)]): Vector[(Long, Long)] =
    edges.toVector ++ edges.map(_.swap) ++ edges.take(3) ++ edges.take(5).map { case (a, _) => (a, a) }
}

package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** Distributed k-core (Algorithm 1, line 2) by message passing over
  * hash-partitioned blocks, in the vertex-centric style of Montresor, De
  * Pellegrini & Miorandi ("Distributed k-core decomposition", IEEE TPDS
  * 24(2), 2013): only the neighbours of removed vertices hear about it.
  *
  * A block's only state is which of its vertices are alive (`Block`). Each
  * synchronous round is one Spark job. The frontier (owned, alive, fewer than
  * k live neighbours) is removed; each removed vertex sends its id to the
  * owner of each of its live neighbours owned elsewhere, which marks it dead.
  * The same job counts the next frontier, and peeling stops when it is
  * empty. Each round's blocks are local-checkpointed, so a round never
  * recomputes an earlier one.
  */
object KCoreSpark {

  /** The blocks of the k-core of any `(src, dst)` table: a vertex is in the
    * core iff it is owned and alive, and an edge iff it is a live slot of
    * such a vertex. The result is persisted; the caller unpersists it.
    */
  def kCore(edges: DataFrame, k: Int): RDD[Block] = {
    require(k >= 1, s"k must be >= 1, got $k")
    var blocks = Blocks.fromEdges(edges).localCheckpoint()
    val parts = blocks.getNumPartitions
    var frontier = blocks.map(frontierSize(_, k)).reduce(_ + _)
    while (frontier > 0) {
      val prev = blocks
      val removed = Blocks.exchange(prev, parts) { (b, out) =>
        val g = b.graph
        for (v <- 0 until g.n if inFrontier(b, v, k); s <- g.offsets(v) until g.offsets(v + 1)) {
          val w = g.adj(s)
          if (b.alive(w) && !b.owned(w)) out.add(Blocks.owner(g.ids(w), parts), g.ids(v))
        }
      }
      blocks = prev.zipPartitions(removed)((bs, ms) => Iterator.single(peel(bs.next(), k, ms.next())))
        .localCheckpoint()
      frontier = blocks.map(frontierSize(_, k)).reduce(_ + _)
      // Spark warns that `prev` cannot be recomputed now; nothing reads it again.
      prev.unpersist(blocking = false)
    }
    blocks
  }

  /** Whether `v` is owned, alive and has fewer than `k` live neighbours. */
  private def inFrontier(b: Block, v: Int, k: Int): Boolean = b.owned(v) && b.alive(v) && {
    val g = b.graph
    var live = 0
    var s = g.offsets(v)
    while (s < g.offsets(v + 1) && live < k) { if (b.alive(g.adj(s))) live += 1; s += 1 }
    live < k
  }

  private def frontierSize(b: Block, k: Int): Long = (0 until b.graph.n).count(inFrontier(b, _, k)).toLong

  /** One round on one block: the frontier and every vertex whose id is in
    * `removed` are marked dead. Marking a dead vertex again changes nothing,
    * so an id received twice, or a round applied twice, is harmless.
    */
  private[spark] def peel(b: Block, k: Int, removed: Array[Long]): Block = {
    val alive = b.alive.clone()
    for (v <- 0 until b.graph.n if inFrontier(b, v, k)) alive(v) = false
    removed.foreach(id => alive(java.util.Arrays.binarySearch(b.graph.ids, id)) = false)
    new Block(b.graph, b.owned, alive)
  }
}

package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** Distributed k-core pruning (Algorithm 1, line 2) by message passing over
  * hash-partitioned blocks, in the vertex-centric style of Montresor, De
  * Pellegrini & Miorandi ("Distributed k-core decomposition", IEEE TPDS
  * 24(2), 2013): only the neighbours of removed vertices hear about it.
  *
  * In a synchronous round the frontier (owned, alive, fewer than k live
  * neighbours) is removed; each removed vertex sends its id to the owner of
  * each of its live neighbours owned elsewhere, which marks it dead (`Block`).
  * A fixed number of rounds leaves a supergraph of the k-core, whose exact
  * core the kernel in `KVCCSpark`'s tasks takes (DESIGN.md §4).
  */
object KCoreSpark {

  /** Peel rounds on the cluster; the task's exact k-core removes what they leave. */
  private val Rounds = 2

  /** The blocks of any `(src, dst)` table after `Rounds` peel rounds, in one
    * job; they hold the k-core. A vertex is kept iff it is owned and alive,
    * and an edge iff it is a live slot of such a vertex. The result is
    * local-checkpointed; the caller unpersists it.
    */
  def prune(edges: DataFrame, k: Int): RDD[Block] = {
    require(k >= 1, s"k must be >= 1, got $k")
    // Each of these is read twice: by the next round's exchange and by its zip.
    val read = Vector.iterate(Blocks.fromEdges(edges), Rounds)(round(_, k)).map(_.persist())
    val pruned = round(read.last, k).localCheckpoint()
    pruned.foreachPartition(_ => ())
    read.foreach(_.unpersist(blocking = false))
    pruned
  }

  private def round(blocks: RDD[Block], k: Int): RDD[Block] = {
    val parts = blocks.getNumPartitions
    val removed = Blocks.exchange(blocks, parts) { (b, out) =>
      val g = b.graph
      for (v <- 0 until g.n if inFrontier(b, v, k); s <- g.offsets(v) until g.offsets(v + 1)) {
        val w = g.adj(s)
        if (b.alive(w) && !b.owned(w)) out.add(Blocks.owner(g.ids(w), parts), g.ids(v))
      }
    }
    blocks.zipPartitions(removed)((bs, ms) => Iterator.single(peel(bs.next(), k, ms.next())))
  }

  /** Whether `v` is owned, alive and has fewer than `k` live neighbours. */
  private def inFrontier(b: Block, v: Int, k: Int): Boolean = b.owned(v) && b.alive(v) && {
    val g = b.graph
    var live = 0
    var s = g.offsets(v)
    while (s < g.offsets(v + 1) && live < k) { if (b.alive(g.adj(s))) live += 1; s += 1 }
    live < k
  }

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

package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** Distributed k-core (Algorithm 1, line 2) by message passing over
  * hash-partitioned blocks, in the vertex-centric style of Montresor, De
  * Pellegrini & Miorandi ("Distributed k-core decomposition", IEEE TPDS
  * 24(2), 2013): only the neighbours of removed vertices hear about it.
  *
  * Each synchronous round is one Spark job. The frontier (owned, alive,
  * degree < k) is removed; each removed vertex sends `(neighbour, removed)`
  * along its live slots to the neighbour's owner, which marks the slot dead
  * and decrements the degree. The same job counts the next frontier, and
  * peeling stops when it is empty. Each round's blocks are local-checkpointed,
  * so a round never recomputes an earlier one.
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
      val removals = Blocks.exchange(prev, parts) { (b, out) =>
        val g = b.graph
        for (v <- 0 until g.n if inFrontier(b, v, k); s <- g.offsets(v) until g.offsets(v + 1) if !b.dead(s)) {
          val w = g.ids(g.adj(s))
          val p = Blocks.owner(w, parts)
          out.add(p, w); out.add(p, g.ids(v))
        }
      }
      blocks = prev.zipPartitions(removals)((bs, ms) => Iterator.single(peel(bs.next(), k, ms.next())))
        .localCheckpoint()
      frontier = blocks.map(frontierSize(_, k)).reduce(_ + _)
      // Spark warns that `prev` cannot be recomputed now; nothing reads it again.
      prev.unpersist(blocking = false)
    }
    blocks
  }

  private def inFrontier(b: Block, v: Int, k: Int): Boolean = b.owned(v) && b.alive(v) && b.degree(v) < k

  private def frontierSize(b: Block, k: Int): Long = (0 until b.graph.n).count(inFrontier(b, _, k)).toLong

  /** One round on one block: the frontier is removed, then each
    * `(neighbour, removed)` pair in `removals` kills the neighbour's slot to
    * the removed vertex. A slot that is already dead is left alone, so a pair
    * applied twice decrements the degree once.
    */
  private[spark] def peel(b: Block, k: Int, removals: Array[Long]): Block = {
    val g = b.graph
    val alive = b.alive.clone()
    val degree = b.degree.clone()
    val dead = b.dead.clone()
    for (v <- 0 until g.n if inFrontier(b, v, k)) alive(v) = false
    var i = 0
    while (i < removals.length) {
      val w = java.util.Arrays.binarySearch(g.ids, removals(i))
      val u = java.util.Arrays.binarySearch(g.ids, removals(i + 1))
      val s = java.util.Arrays.binarySearch(g.adj, g.offsets(w), g.offsets(w + 1), u)
      if (!dead(s)) { dead(s) = true; degree(w) -= 1 }
      i += 2
    }
    new Block(g, b.owned, alive, degree, dead)
  }
}

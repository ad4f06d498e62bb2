package repro.spark

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.graph.AdjGraph

/** One partition of a graph that is hash-partitioned by vertex (DESIGN.md §4).
  *
  * `graph` holds every edge incident to a vertex this partition owns, so an
  * owned vertex's list is its whole neighbourhood; the other vertices of
  * `graph` are ghosts, neighbours owned elsewhere. Per local index: `owned`,
  * and `alive`, cleared when k-core peeling removes the vertex; for an owned
  * vertex it is exact. A ghost is cleared when its owner reports it removed,
  * and the owner reports it only to the owners of its live neighbours, so a
  * ghost stays alive after its removal only when all of its neighbours here
  * are dead: then it counts towards no live degree and lies on no live edge.
  *
  * A block is never changed once built: a peeling round makes a new one, so a
  * recomputed partition cannot see a round applied twice.
  */
final class Block private[spark] (val graph: AdjGraph, val owned: Array[Boolean], val alive: Array[Boolean])
    extends Serializable {

  /** Applies `f` to each live edge `(v, w)`, in local indices, where `v` is
    * owned, both ends are alive, and `ids(v) < ids(w)`. Over all blocks of a
    * graph, every live edge is visited exactly once: by the owner of its
    * smaller endpoint.
    */
  def foreachLiveEdge(f: (Int, Int) => Unit): Unit = {
    val g = graph
    var v = 0
    while (v < g.n) {
      if (owned(v) && alive(v)) {
        var s = g.offsets(v)
        val end = g.offsets(v + 1)
        while (s < end) {
          val w = g.adj(s)
          if (alive(w) && g.ids(v) < g.ids(w)) f(v, w)
          s += 1
        }
      }
      v += 1
    }
  }
}

/** Builds blocks and moves records between partitions. Everything here is a
  * transformation: the actions run in `KCoreSpark`, `ConnectedComponentsSpark`
  * and `KVCCSpark`, so that each job is attributed to its layer.
  */
object Blocks {

  /** The partition, of `parts`, that owns vertex `id`: a fixed hash of the
    * id, so strided ids spread out and negative ids are placed too.
    */
  def owner(id: Long, parts: Int): Int =
    Math.floorMod(scala.util.hashing.byteswap64(id), parts.toLong).toInt

  /** One block per partition, over `defaultParallelism` partitions, from
    * any `(src, dst)` table. Each edge is sent in both directions to the
    * owner of its source; self-loops are dropped, and duplicates and
    * reversed pairs merge in `AdjGraph.fromPairs`.
    */
  def fromEdges(edges: DataFrame): RDD[Block] = {
    val parts = edges.sparkSession.sparkContext.defaultParallelism
    val rows = edges.select(col("src").cast("long"), col("dst").cast("long")).rdd
    exchange(rows, parts) { (r, out) =>
      val a = r.getLong(0)
      val b = r.getLong(1)
      if (a != b) {
        val pa = owner(a, parts)
        val pb = owner(b, parts)
        out.add(pa, a); out.add(pa, b)
        if (pb != pa) { out.add(pb, b); out.add(pb, a) }
      }
    }.mapPartitionsWithIndex { (p, it) =>
      val g = AdjGraph.fromPairs(it.next())
      Iterator.single(new Block(g, g.ids.map(owner(_, parts) == p), Array.fill(g.n)(true)))
    }
  }

  /** Growable primitive buffers, one per destination partition. */
  private[spark] final class Outbox(parts: Int) {
    private val bufs = Array.fill(parts)(new Array[Long](16))
    private val sizes = new Array[Int](parts)

    def add(p: Int, x: Long): Unit = {
      if (sizes(p) == bufs(p).length) bufs(p) = java.util.Arrays.copyOf(bufs(p), 2 * sizes(p))
      bufs(p)(sizes(p)) = x
      sizes(p) += 1
    }

    private[Blocks] def packets: Iterator[(Int, Array[Long])] =
      Iterator.range(0, parts).filter(sizes(_) > 0).map(p => (p, java.util.Arrays.copyOf(bufs(p), sizes(p))))
  }

  /** A shuffle of `Long` records into `parts` partitions: `emit` adds each
    * record's fields to the `Outbox` under its destination. Every (map,
    * reduce) partition pair moves one primitive array, so the cost does not
    * depend on `spark.serializer`. Each output partition holds exactly one
    * array: the concatenation of what was sent to it.
    */
  private[spark] def exchange[T](rdd: RDD[T], parts: Int)(emit: (T, Outbox) => Unit): RDD[Array[Long]] =
    rdd.mapPartitions { it =>
      val out = new Outbox(parts)
      it.foreach(emit(_, out))
      out.packets
    }.partitionBy(new HashPartitioner(parts)).mapPartitions({ it =>
      val arrays = it.map(_._2).toArray
      val all = new Array[Long](arrays.map(_.length).sum)
      var at = 0
      arrays.foreach { a => System.arraycopy(a, 0, all, at, a.length); at += a.length }
      Iterator.single(all)
    }, preservesPartitioning = true)
}

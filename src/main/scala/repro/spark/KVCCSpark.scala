package repro.spark

import org.apache.spark.sql.DataFrame
import repro.core.{KVCCEnumerator, Variant}
import repro.graph.AdjGraph

/** Distributed KVCC-ENUM driver (DESIGN.md §4).
  *
  * The bulk phases run on one hash-partitioned adjacency (`Blocks`): the
  * k-core by message-passing rounds (`KCoreSpark`), then the connected
  * components by per-partition spanning forests merged on the driver
  * (`ConnectedComponentsSpark`). Each live core edge then travels, with its
  * component label, to the label's owner, where each component is built as
  * one `AdjGraph` and the recursive cut-and-partition kernel
  * (`KVCCEnumerator`) enumerates its k-VCCs. The post-k-core components are
  * orders of magnitude smaller than the input graph (that is the point of
  * Algorithm 1's pre-pruning), so this mirrors the paper's
  * partition-then-solve structure at cluster scale.
  */
object KVCCSpark {

  /** All k-VCCs of the graph in `edges` (any (src,dst) table), as sorted
    * vertex-id vectors in `KVCCEnumerator.canonicalOrder`. Each executor
    * task enumerates its components on `spark.task.cpus` threads (default 1).
    */
  def enumerate(edges: DataFrame, k: Int, variant: Variant = Variant.Star): Vector[Vector[Long]] = {
    val core = KCoreSpark.kCore(edges, k)
    try {
      val labels = ConnectedComponentsSpark.labels(core)
      if (labels.size == 0) Vector.empty
      else {
        val sc = edges.sparkSession.sparkContext
        val parts = core.getNumPartitions
        val shared = sc.broadcast(labels)
        // A task may use the cores of its slot and no more.
        val threads = sc.getConf.getInt("spark.task.cpus", 1)
        val routed = Blocks.exchange(core, parts) { (b, out) =>
          val ids = b.graph.ids
          val label = shared.value
          b.foreachLiveEdge { (v, w) =>
            val c = label(ids(v))
            val p = Blocks.owner(c, parts)
            out.add(p, c); out.add(p, ids(v)); out.add(p, ids(w))
          }
        }
        val found = routed.flatMap(components(_).flatMap { g =>
          KVCCEnumerator.enumerate(g, k, variant, threads = threads).map(_.sortedIds.toVector)
        })
        try found.collect().toVector.sorted(KVCCEnumerator.canonicalOrder)
        finally shared.destroy()
      }
    } finally core.unpersist(blocking = false)
  }

  /** One graph per component of the `(label, v, w)` triples, built lazily. */
  private def components(triples: Array[Long]): Iterator[AdjGraph] =
    (0 until triples.length / 3).groupBy(i => triples(3 * i)).valuesIterator.map { es =>
      AdjGraph.fromEdges(es.view.map(i => (triples(3 * i + 1), triples(3 * i + 2))))
    }
}

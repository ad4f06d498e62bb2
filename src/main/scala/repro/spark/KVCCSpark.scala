package repro.spark

import org.apache.spark.sql.DataFrame
import repro.core.{KVCCEnumerator, Variant}
import repro.graph.AdjGraph

/** Distributed KVCC-ENUM driver (DESIGN.md §4).
  *
  * Bulk phases run as distributed dataflow — k-core as iterative DataFrame
  * joins, connected components via GraphX — and each resulting component is
  * shipped to an executor as one RDD element, where the recursive
  * cut-and-partition kernel (`KVCCEnumerator`) enumerates its k-VCCs. The
  * post-k-core components are orders of magnitude smaller than the input
  * graph (that is the point of Algorithm 1's pre-pruning), so this mirrors
  * the paper's partition-then-solve structure at cluster scale.
  */
object KVCCSpark {

  /** All k-VCCs of the graph in `edges` (any (src,dst) table), as sorted
    * vertex-id vectors.
    */
  def enumerate(edges: DataFrame, k: Int, variant: Variant = Variant.Star): Vector[Vector[Long]] = {
    val core = KCoreSpark.kCore(edges, k)
    val labels = ConnectedComponentsSpark.viaGraphX(core)
    // One (component, edge list) per post-core connected component.
    val comps = core
      .join(labels.withColumnRenamed("vertex", "src"), "src")
      .select("component", "src", "dst")
      .rdd
      .map(r => (r.getLong(0), (r.getLong(1), r.getLong(2))))
      .groupByKey()
    val result = comps.flatMap { case (_, es) =>
      val g = AdjGraph.fromEdges(es)
      KVCCEnumerator.enumerate(g, k, variant).map(_.sortedIds.toVector)
    }
    result.collect().toVector.sortBy(v => (v.length, v.mkString(",")))
  }
}

package repro.spark

import org.apache.spark.sql.DataFrame
import repro.core.{KVCCEnumerator, Variant}
import repro.graph.AdjGraph

/** Distributed KVCC-ENUM driver (DESIGN.md §4).
  *
  * The bulk phases run on one hash-partitioned adjacency (`Blocks`): two
  * k-core peel rounds (`KCoreSpark.prune`), which leave a supergraph of the
  * core, then the connected components by per-partition spanning forests
  * merged on the driver (`ConnectedComponentsSpark`). Each live edge then
  * travels to the owner of its component's label, so a task receives whole
  * components. It builds them as one `AdjGraph` and runs the recursive
  * cut-and-partition kernel (`KVCCEnumerator`) once: the kernel's exact
  * k-core finishes the peel, and its components step splits the disjoint
  * union, whose k-VCCs are those of its parts. Each pruned component holds
  * whole core components, orders of magnitude smaller than the input graph,
  * which mirrors the paper's partition-then-solve structure at cluster scale.
  */
object KVCCSpark {

  /** All k-VCCs of the graph in `edges` (any (src,dst) table), as sorted
    * vertex-id vectors in `KVCCEnumerator.canonicalOrder`. Each executor
    * task enumerates its components on `spark.task.cpus` threads (default 1).
    */
  def enumerate(edges: DataFrame, k: Int, variant: Variant = Variant.Star): Vector[Vector[Long]] = {
    val pruned = KCoreSpark.prune(edges, k)
    try {
      val labels = ConnectedComponentsSpark.labels(pruned)
      if (labels.size == 0) Vector.empty
      else {
        val sc = edges.sparkSession.sparkContext
        val parts = pruned.getNumPartitions
        val shared = sc.broadcast(labels)
        // A task may use the cores of its slot and no more.
        val threads = sc.getConf.getInt("spark.task.cpus", 1)
        val routed = Blocks.exchange(pruned, parts) { (b, out) =>
          val ids = b.graph.ids
          val label = shared.value
          b.foreachLiveEdge { (v, w) =>
            val p = Blocks.owner(label(ids(v)), parts)
            out.add(p, ids(v)); out.add(p, ids(w))
          }
        }
        val found = routed.flatMap { pairs =>
          KVCCEnumerator.enumerate(AdjGraph.fromPairs(pairs), k, variant, threads = threads).map(_.sortedIds.toVector)
        }
        try found.collect().toVector.sorted(KVCCEnumerator.canonicalOrder)
        finally shared.destroy()
      }
    } finally pruned.unpersist(blocking = false)
  }
}

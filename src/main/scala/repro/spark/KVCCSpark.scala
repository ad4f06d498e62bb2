package repro.spark

import org.apache.spark.sql.DataFrame
import repro.core.{KVCCEnumerator, Variant}
import repro.graph.AdjGraph

/** Distributed KVCC-ENUM driver (DESIGN.md §4).
  *
  * The bulk phases run on one hash-partitioned adjacency (`Blocks`): the
  * k-core by message-passing rounds (`KCoreSpark`), then the connected
  * components by per-partition spanning forests merged on the driver
  * (`ConnectedComponentsSpark`). Each live core edge then travels to the
  * owner of its component's label, so a task receives whole components. It
  * builds them as one `AdjGraph` and runs the recursive cut-and-partition
  * kernel (`KVCCEnumerator`) once: the kernel's own k-core and components
  * step splits the disjoint union, whose k-VCCs are those of its parts. The
  * post-k-core components are orders of magnitude smaller than the input
  * graph (that is the point of Algorithm 1's pre-pruning), so this mirrors
  * the paper's partition-then-solve structure at cluster scale.
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
    } finally core.unpersist(blocking = false)
  }
}

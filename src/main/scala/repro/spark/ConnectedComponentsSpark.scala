package repro.spark

import org.apache.spark.rdd.RDD
import repro.graph.{AdjGraph, GraphOps}

/** Distributed connected components (Algorithm 1, line 3) by the
  * "filtering" technique of Lattanzi, Moseley, Suri & Vassilvitskii (SPAA
  * 2011): one job reduces each partition's live edges to a spanning forest,
  * and the driver merges the forests. Both steps run the local kernel's
  * `GraphOps.connectedComponents`. Each vertex is labelled with the minimum
  * vertex id of its component. Tests cross-check it against the local
  * kernel and against a DuckDB recursive-CTE oracle.
  */
object ConnectedComponentsSpark {

  /** Component labels: `ids` sorted ascending, and `components(i)` the
    * minimum id in the component of `ids(i)`.
    */
  final class Labels private[spark] (val ids: Array[Long], val components: Array[Long]) extends Serializable {
    def size: Int = ids.length

    /** The label of a vertex that has one. */
    def apply(id: Long): Long = components(java.util.Arrays.binarySearch(ids, id))
  }

  /** Labels of the vertices of the live edges of `blocks`.
    *
    * Each partition `p` sends its forest as one `(vertex, root)` pair per
    * vertex of its live edges `E_p`, so the driver merges at most
    * Σ_p |V(E_p)| ≤ P·n pairs, where P is the number of partitions and n the
    * number of vertices with a live edge (after pruning, about n_core).
    */
  def labels(blocks: RDD[Block]): Labels = {
    val forests = blocks.map { b =>
      val ids = b.graph.ids
      val pairs = Array.newBuilder[Long]
      b.foreachLiveEdge { (v, w) => pairs += ids(v); pairs += ids(w) }
      stars(pairs.result())
    }.collect()
    val merged = stars(forests.flatten)
    val n = merged.length / 2
    new Labels(Array.tabulate(n)(i => merged(2 * i)), Array.tabulate(n)(i => merged(2 * i + 1)))
  }

  /** The components of the graph on the interleaved `(src, dst)` pairs as
    * a star forest: one `(vertex, root)` pair per vertex, in ascending vertex
    * order, where `root` is the smallest id of the vertex's component.
    */
  private def stars(pairs: Array[Long]): Array[Long] = {
    val g = AdjGraph.fromPairs(pairs)
    val out = new Array[Long](2 * g.n)
    // BFS starts each component at its smallest index, which holds its smallest id.
    for (c <- GraphOps.connectedComponents(g); v <- c) { out(2 * v) = g.ids(v); out(2 * v + 1) = g.ids(c(0)) }
    out
  }
}

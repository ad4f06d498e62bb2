package repro

import org.apache.spark.sql.DataFrame
import repro.graph.AdjGraph

/** Graph builders that only tests use. */
object TestGraphs {

  /** Build from local-index pairs; vertex ids default to `0L until n`. */
  def fromLocalEdges(n: Int, edges: Seq[(Int, Int)], ids: Array[Long] = null): AdjGraph = {
    val theIds = if (ids == null) Array.tabulate(n)(_.toLong) else ids
    require(theIds.length == n, s"ids.length=${theIds.length} != n=$n")
    AdjGraph.fromEdges(edges.map { case (a, b) => (theIds(a), theIds(b)) }, theIds)
  }

  /** Collect a canonical edge table into the local graph kernel. */
  def toLocal(canonical: DataFrame): AdjGraph =
    AdjGraph.fromEdges(canonical.collect().map(r => (r.getLong(0), r.getLong(1))))
}

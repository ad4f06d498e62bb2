package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.AdjGraph

/** DataFrame operations over undirected edge tables.
  *
  * Convention: an edge table has two Long columns `src`, `dst`; the canonical
  * form stores each undirected edge once with `src < dst`, no self-loops, no
  * duplicates.
  */
object EdgeOps {

  /** Canonicalize an arbitrary (src,dst) table. */
  def canonicalize(edges: DataFrame): DataFrame = {
    edges
      .select(
        least(col("src"), col("dst")).cast("long").as("src"),
        greatest(col("src"), col("dst")).cast("long").as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()
  }

  /** Both directions of a canonical edge table (for neighborhood joins). */
  def symmetric(canonical: DataFrame): DataFrame =
    canonical.select(col("src"), col("dst"))
      .union(canonical.select(col("dst").as("src"), col("src").as("dst")))

  /** Per-vertex degree table: (vertex: long, degree: long). */
  def degrees(canonical: DataFrame): DataFrame =
    symmetric(canonical)
      .groupBy(col("src").as("vertex"))
      .agg(count(lit(1)).as("degree"))
      .select(col("vertex"), col("degree"))

  /** The statistics reported in the paper's Table 1. `density` = |E| / |V|. */
  final case class GraphStats(n: Long, m: Long, density: Double, maxDegree: Long)

  def stats(canonical: DataFrame): GraphStats = {
    val m = canonical.count()
    val deg = degrees(canonical).agg(
      count(lit(1)).as("n"),
      max(col("degree")).as("maxDeg"))
      .collect()(0)
    val n = deg.getLong(0)
    val maxDeg = if (deg.isNullAt(1)) 0L else deg.getLong(1)
    GraphStats(n, m, if (n == 0) 0.0 else m.toDouble / n, maxDeg)
  }

  /** Triangle count via a three-way self-join over the canonical table. */
  def triangleCount(canonical: DataFrame): Long = {
    val e = canonical
    e.as("e1")
      .join(e.as("e2"), col("e1.dst") === col("e2.src"))
      .join(
        e.as("e3"),
        col("e3.src") === col("e1.src") && col("e3.dst") === col("e2.dst"))
      .count()
  }

  /** Edge DataFrame from a local edge list. */
  def toDF(spark: SparkSession, edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    spark.createDataset(edges).toDF("src", "dst")
  }

  /** Collect a canonical edge table into the local graph kernel. */
  def toLocal(canonical: DataFrame): AdjGraph = {
    val pairs = canonical.collect().map(r => (r.getLong(0), r.getLong(1)))
    AdjGraph.fromEdges(pairs)
  }
}

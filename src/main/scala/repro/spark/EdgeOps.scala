package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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

  /** Edges per slice of `toDF`: 512 KiB of `Long`s, half the task size above
    * which Spark warns.
    */
  private val SliceEdges = 1 << 15

  /** Edge DataFrame from a local edge list, in the list's order. The driver
    * cuts the list into `defaultParallelism` primitive slices, or more so
    * that none holds more than `SliceEdges` edges; the rows are made on the
    * executors, so no plan carries the edges.
    */
  def toDF(spark: SparkSession, edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    val sc = spark.sparkContext
    val m = edges.length
    val slices = math.max(sc.defaultParallelism, (m + SliceEdges - 1) / SliceEdges)
    val it = edges.iterator
    val chunks = Vector.tabulate(slices) { s =>
      val a = new Array[Long](2 * ((s + 1).toLong * m / slices - s.toLong * m / slices).toInt)
      for (i <- 0 until a.length by 2) { val (u, v) = it.next(); a(i) = u; a(i + 1) = v }
      a
    }
    sc.parallelize(chunks, slices)
      .flatMap(a => Iterator.range(0, a.length, 2).map(i => (a(i), a(i + 1))))
      .toDF("src", "dst")
  }
}

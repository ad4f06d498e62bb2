package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.Variant
import repro.gen.Datasets
import repro.spark.{EdgeOps, KVCCSpark}

/** Figure-11-shaped experiment: the number of k-VCCs per dataset as k varies
  * — run through the fully distributed pipeline (message-passing k-core,
  * spanning-forest connected components, per-component enumeration on
  * executors). Expected
  * shape: counts decrease as k grows.
  */
object CountsExp {

  final case class Row(name: String, k: Int, count: Int, largest: Int, dup: Long)

  def run(spark: SparkSession, scale: Double = ExpConfig.scale): Vector[Row] =
    ExpConfig.datasets.flatMap { spec =>
      val edges = EdgeOps.toDF(spark, Datasets.generate(spec, scale))
      ExpConfig.kValues.map { k =>
        val vccs = KVCCSpark.enumerate(edges, k, Variant.Star)
        val vertexOccurrences = vccs.map(_.length.toLong).sum
        val distinctVertices = vccs.flatten.distinct.length.toLong
        Row(spec.name, k, vccs.length,
          if (vccs.isEmpty) 0 else vccs.map(_.length).max,
          vertexOccurrences - distinctVertices)
      }
    }

  def render(rows: Seq[Row], scale: Double): String = {
    val header = Seq("Dataset", "k", "#k-VCC", "largest |V|", "overlapped vertices")
    val body = rows.map(r => Seq(r.name, r.k.toString, r.count.toString, r.largest.toString, r.dup.toString))
    Tables.render(f"Fig 11 (as table): number of k-VCCs via KVCCSpark (scale=$scale%.5f)", header, body)
  }

  def runAndEmit(spark: SparkSession): Vector[Row] = {
    val scale = ExpConfig.scale
    val rows = run(spark, scale)
    Tables.emit("fig11_counts.txt", render(rows, scale))
    rows
  }
}

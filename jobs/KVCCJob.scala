package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Variant
import repro.exp.ExpConfig
import repro.gen.Datasets
import repro.spark.{EdgeOps, KVCCSpark}

/** Enumerate the k-VCCs of one synthetic dataset through the distributed
  * pipeline and print a summary.
  *
  * Usage: spark-submit --class repro.jobs.KVCCJob repro.jar <dataset> <k> [variant]
  *   variant ∈ {VCCE, VCCE-N, VCCE-G, VCCE*} (default VCCE*)
  */
object KVCCJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: KVCCJob <dataset> <k> [variant]")
    val spec = Datasets.byName(args(0))
    val k = args(1).toInt
    val variant = if (args.length >= 3) {
      Variant.all.find(_.name.equalsIgnoreCase(args(2)))
        .getOrElse(throw new IllegalArgumentException(s"unknown variant ${args(2)}"))
    } else Variant.Star

    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"kvcc-${spec.name}-$k")
      .getOrCreate()
    try {
      val edges = EdgeOps.toDF(spark, Datasets.generate(spec, ExpConfig.scale))
      val t0 = System.nanoTime()
      val vccs = KVCCSpark.enumerate(edges, k, variant)
      val ms = (System.nanoTime() - t0) / 1e6
      println(f"[$spec] k=$k variant=${variant.name}: ${vccs.length} k-VCCs in $ms%.0f ms")
      vccs.take(20).zipWithIndex.foreach { case (v, i) =>
        println(s"  #$i: |V|=${v.length} ids=${v.take(12).mkString(",")}${if (v.length > 12) ",…" else ""}")
      }
      if (vccs.length > 20) println(s"  … ${vccs.length - 20} more")
    } finally spark.stop()
  }
}

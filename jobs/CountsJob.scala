package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.CountsExp

/** Entrypoint for the Figure-11-shaped k-VCC counts via the distributed
  * pipeline (`KVCCSpark`: block k-core, forest CC, executor-side enumeration).
  * Env: REPRO_SCALE, REPRO_DATASETS.
  */
object CountsJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("kvcc-counts")
      .getOrCreate()
    try CountsExp.runAndEmit(spark)
    finally spark.stop()
  }
}

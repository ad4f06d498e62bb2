package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Table1

/** spark-submit entrypoint for paper Table 1 (network statistics).
  * Usage: spark-submit --class repro.jobs.Table1Job repro.jar
  * Env: REPRO_SCALE, REPRO_DATASETS.
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("kvcc-table1")
      .getOrCreate()
    try Table1.runAndEmit(spark)
    finally spark.stop()
  }
}

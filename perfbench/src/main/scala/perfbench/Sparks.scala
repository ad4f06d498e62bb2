package perfbench

import java.io.File
import org.apache.spark.sql.SparkSession

/** The benchmark's own Spark settings, pinned here rather than taken from
  * the environment or the test suite.
  */
object Sparks {

  val master: String = s"local[${Runtime.getRuntime.availableProcessors}]"

  val conf: Vector[(String, String)] = Vector(
    "spark.sql.shuffle.partitions" -> "4",
    "spark.default.parallelism" -> Runtime.getRuntime.availableProcessors.toString,
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.adaptive.enabled" -> "true",
    "spark.serializer" -> "org.apache.spark.serializer.JavaSerializer",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
  )

  def start(scratch: File): SparkSession = {
    val b = SparkSession.builder().master(master).appName("perfbench")
      .config("spark.local.dir", new File(scratch, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(scratch, "spark-warehouse").getAbsolutePath)
    conf.foreach { case (k, v) => b.config(k, v) }
    val s = b.getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

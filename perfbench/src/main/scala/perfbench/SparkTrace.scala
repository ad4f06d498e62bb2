package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** A `SparkListener` that attributes every job to a layer of `repro.spark`
  * by its call site: the innermost `repro.` frame of the SQL execution that
  * submitted the job, or else of the job's final stage (`KCoreSpark` → kcore,
  * `ConnectedComponentsSpark` → cc, `KVCCSpark` → enum, anything else →
  * other). Task metrics are summed over all jobs.
  */
final class SparkTrace extends SparkListener {

  final class Job(val id: Int, val layer: String, val start: Long, val shortSite: String, val stages: Seq[Int]) {
    var end: Long = -1L
  }
  final class Stage {
    var submitted: Long = -1L
    var completed: Long = -1L
    var taskMaxMs: Long = 0L
  }

  val jobs = mutable.ArrayBuffer.empty[Job]
  val stages = mutable.HashMap.empty[Int, Stage]
  var tasks = 0L
  var shuffleWriteBytes = 0L
  var executorRunMs = 0L
  var executorGcMs = 0L

  /** Layer of each SQL execution, by execution id. */
  private val executions = mutable.HashMap.empty[Long, String]

  private def stage(id: Int): Stage = stages.getOrElseUpdate(id, new Stage)

  private def layerOf(callSite: String): String =
    callSite.linesIterator.map(_.trim).find(_.startsWith("repro.")) match {
      case Some(f) if f.startsWith("repro.spark.KCoreSpark")               => "kcore"
      case Some(f) if f.startsWith("repro.spark.ConnectedComponentsSpark") => "cc"
      case Some(f) if f.startsWith("repro.spark.KVCCSpark")                => "enum"
      case _                                                               => "other"
    }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case x: SparkListenerSQLExecutionStart => synchronized(executions(x.executionId) = layerOf(x.details))
    case _                                 => ()
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    // The result stage is created after its parents, so it has the largest id.
    val last = e.stageInfos.maxBy(_.stageId)
    val execution = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
    val layer = execution.flatMap(id => executions.get(id.toLong)).getOrElse(layerOf(last.details))
    jobs += new Job(e.jobId, layer, e.time, last.name, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.find(_.id == e.jobId).foreach(_.end = e.time)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    e.stageInfo.submissionTime.foreach(stage(e.stageInfo.stageId).submitted = _)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val s = stage(e.stageInfo.stageId)
    e.stageInfo.submissionTime.foreach(s.submitted = _)
    e.stageInfo.completionTime.foreach(s.completed = _)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val s = stage(e.stageId)
    s.taskMaxMs = math.max(s.taskMaxMs, e.taskInfo.duration)
    val m = e.taskMetrics
    if (m != null) {
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      executorRunMs += m.executorRunTime
      executorGcMs += m.jvmGCTime
    }
  }

  /** Block until every started job has ended and the bus has been quiet for
    * a moment (listener events arrive asynchronously).
    */
  def await(timeoutMs: Long = 10000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def settled = synchronized(jobs.forall(_.end >= 0) && stages.values.forall(s => s.completed >= 0 || s.submitted < 0))
    while (!settled && System.currentTimeMillis() < deadline) Thread.sleep(20)
    Thread.sleep(200)
  }

  def layerJobs(layer: String): Seq[Job] = synchronized(jobs.filter(_.layer == layer).toSeq)

  /** Summed job durations of a layer, in ms. */
  def layerMs(layer: String): Double = layerJobs(layer).map(j => (j.end - j.start).toDouble).sum

  /** Length in ms of the union of all job intervals. */
  def jobUnionMs: Double = synchronized {
    val iv = jobs.map(j => (j.start, j.end)).sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    iv.foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total.toDouble
  }

  /** The enumeration stage: the last stage of the last `enum` job. */
  def enumStage: Option[Stage] =
    layerJobs("enum").lastOption.flatMap(j => j.stages.sorted.lastOption).flatMap(stages.get)
}

package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core.{KVCCEnumerator, KvccStats, Variant}
import repro.graph.AdjGraph
import repro.spark.{EdgeOps, KVCCSpark}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.control.NonFatal

/** Command-line settings of one run. */
final case class Settings(
    workload: Workload,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    datasetSeed: Long,
    reference: File,
    results: File,
    gitSha: String,
    sourceSha: String,
    xmx: String)

/** One query of a pass. `sets` holds each k-VCC's sorted vertex ids; `graph`
  * summarises the `AdjGraph` the query ran on (local workloads).
  */
final case class QueryRun(
    query: Query,
    seconds: Double,
    sets: Vector[Array[Long]],
    stats: Option[KvccStats],
    error: Option[Throwable],
    graph: Option[GraphRef])

/** One pass over the workload's query list. */
final case class PassRun(seconds: Double, allocBytes: Long, queries: Vector[QueryRun])

/** Bytes allocated, from the JVM's per-thread counters. */
object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def thread(): Long = mx.getCurrentThreadAllocatedBytes

  def allThreads(): Map[Long, Long] = {
    val ids = mx.getAllThreadIds
    ids.zip(mx.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated since `before` by every thread alive now. */
  def since(before: Map[Long, Long]): Long =
    allThreads().iterator.map { case (t, b) => b - before.getOrElse(t, 0L) }.filter(_ > 0).sum
}

/** Set-up, the closed measurement loop, the output gate and the traced run. */
final class Bench(s: Settings) {
  private val w = s.workload
  private val spec = w.spec.copy(seed = s.datasetSeed)
  private val scratch = new File(s.results, "tmp")

  private val digests = new Digests(new File(s.reference, "digests.tsv"))
  private val graphRefs = new GraphRefs(new File(s.reference, "graphs.tsv"))
  /** Counters of earlier runs of the same sources in this checkout. */
  private val ledger = new Counters(new File(s.results, s"counters-ledger-${s.sourceSha.take(16)}.tsv"))

  private var spark: Option[SparkSession] = None
  private var attempted = 0
  private var failed = 0
  private val problems = mutable.ArrayBuffer.empty[String]

  /** A run sets up this many times; `setup_s` is their median. The first
    * round, on a fresh JVM, is also reported as `setup.cold_s`.
    */
  private val SetupRounds = 3
  /** The warm-up pass runs the workload's queries on its dataset at this fraction of the scale. */
  private val WarmupShrink = 16.0

  def run(): Int = {
    s.results.mkdirs()
    scratch.mkdirs()
    try {
      var input: Input = null
      val setupSeconds = Vector.fill(SetupRounds) {
        val t0 = System.nanoTime()
        input = setUp()
        (System.nanoTime() - t0) / 1e9
      }

      val passes = mutable.ArrayBuffer.empty[PassRun]
      val start = System.nanoTime()
      do passes += pass(input) while (System.nanoTime() - start < s.seconds * 1000000000L)
      verify(input, passes.toVector)

      val runS = median(passes.map(_.seconds))
      val endToEnd = ListMap(
        "setup_s" -> median(setupSeconds),
        "run_s" -> runS,
        "query_s.max" -> median(passes.map(_.queries.map(_.seconds).max)),
      )
      val (perLayer, extra) =
        if (!s.trace) (ListMap.empty[String, Double], ListMap.empty[String, Any])
        else {
          val (m, x) = traced(input, runS)
          (ListMap("setup.cold_s" -> setupSeconds.head,
            "alloc_mb" -> median(passes.map(_.allocBytes / 1e6))) ++ m, x)
        }
      if (failed == 0 && problems.isEmpty) countersSeen.foreach { case (k, v) => ledger.add(k, v) }

      val correct = failed == 0 && problems.isEmpty
      val reported = if (s.trace) Metrics.perLayer else Metrics.endToEnd
      val values = if (s.trace) perLayer else endToEnd
      val metrics = ListMap(reported.map { case (name, unit) =>
        name -> ListMap("value" -> values.getOrElse(name, 0.0), "unit" -> unit)
      }: _*)
      val result = ListMap("correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> metrics)

      val file = new File(s.results, s"${w.name}-seed${s.seed}-trace${if (s.trace) 1 else 0}.json")
      writeFile(file, Json.render(ListMap[String, Any](
        "manifest" -> manifest,
        "result" -> result,
        "end_to_end" -> endToEnd,
        "per_layer" -> perLayer,
        "setup_rounds_s" -> setupSeconds,
        "passes" -> passes.map(p => ListMap(
          "seconds" -> p.seconds,
          "alloc_mb" -> p.allocBytes / 1e6,
          "queries" -> p.queries.map(q => ListMap(
            "k" -> q.query.k, "variant" -> q.query.variant.name, "seconds" -> q.seconds,
            "components" -> q.sets.length,
            "counters" -> q.stats.map(st => ListMap(Counters.kvccFields.zip(Counters.kvcc(st)): _*)))))),
        "problems" -> problems,
      ) ++ extra) + "\n")
      println(s"[perfbench] manifest ${Json.render(manifest)}")
      println(s"[perfbench] result file ${file.getPath}")
      problems.foreach(p => System.err.println(s"[perfbench] FAIL $p"))
      println(Json.render(result))
      0
    } finally spark.foreach(_.stop())
  }

  // ---------------------------------------------------------------- set-up

  /** One set-up round: generate the edge list, (re)start Spark if the
    * workload needs it, and warm up on a small instance of the workload.
    */
  private def setUp(): Input = {
    val input = Input.generate(spec, w.scale, s.seed)
    val small = Input.generate(spec, w.scale / WarmupShrink, s.seed)
    if (w.path == Path.Spark) {
      spark.foreach(_.stop())
      spark = Some(Sparks.start(scratch))
    }
    pass(small)
    input
  }

  // ---------------------------------------------------------------- passes

  private def pass(input: Input): PassRun = w.path match {
    case Path.Spark => sparkPass(input)
    case _          => localPass(input)
  }

  private def attempt[A](body: => A): Either[Throwable, A] =
    try Right(body) catch { case NonFatal(e) => Left(e) }

  private def localPass(input: Input): PassRun = {
    val a0 = Alloc.thread()
    val t0 = System.nanoTime()
    val shared = if (w.path == Path.LocalShared) AdjGraph.fromEdges(input.edges) else null
    val raw = w.queries.map { q =>
      val q0 = System.nanoTime()
      val stats = new KvccStats
      var g: AdjGraph = shared
      val out = attempt {
        if (g == null) g = AdjGraph.fromEdges(input.edges)
        KVCCEnumerator.enumerate(g, q.k, q.variant, stats)
      }
      (q, (System.nanoTime() - q0) / 1e9, out, stats, g)
    }
    val t1 = System.nanoTime()
    val a1 = Alloc.thread()
    // Summarised after the timed part; the shared graph only once.
    val sharedRef = Option(shared).map(Gate.graphRef(input, _))
    PassRun((t1 - t0) / 1e9, a1 - a0, raw.map { case (q, secs, out, stats, g) =>
      val ref = sharedRef orElse Option(g).map(Gate.graphRef(input, _))
      QueryRun(q, secs, out.fold(_ => Vector.empty, _.map(_.sortedIds)), Some(stats), out.left.toOption, ref)
    })
  }

  private def sparkPass(input: Input): PassRun = {
    val ss = spark.get
    val before = Alloc.allThreads()
    val t0 = System.nanoTime()
    val raw = w.queries.map { q =>
      val q0 = System.nanoTime()
      val out = attempt(KVCCSpark.enumerate(EdgeOps.toDF(ss, input.edges), q.k, q.variant))
      (q, (System.nanoTime() - q0) / 1e9, out)
    }
    val t1 = System.nanoTime()
    val alloc = Alloc.since(before)
    PassRun((t1 - t0) / 1e9, alloc, raw.map { case (q, secs, out) =>
      QueryRun(q, secs, out.fold(_ => Vector.empty, _.map(_.toArray)), None, out.left.toOption, None)
    })
  }

  // ------------------------------------------------------------------ gate

  private val digestByK = mutable.HashMap.empty[Int, String]
  private val countersSeen = mutable.LinkedHashMap.empty[Seq[String], Vector[Long]]
  private var checkGraph: AdjGraph = null
  private val localStar = mutable.HashMap.empty[Int, String]

  private def graphOf(input: Input): AdjGraph = {
    if (checkGraph == null) checkGraph = AdjGraph.fromEdges(input.edges)
    checkGraph
  }

  /** Gate one query; a query that fails counts in `failed`. */
  private def gate(
      input: Input,
      q: Query,
      sets: Vector[Array[Long]],
      error: Option[Throwable],
      graph: Option[GraphRef],
      what: String): Unit = {
    attempted += 1
    val faults = mutable.ArrayBuffer.empty[String]
    for (got <- graph; ref <- graphRefs.get(w.name, s.datasetSeed) if got != ref)
      faults += s"AdjGraph.fromEdges built $got, not the reference $ref"
    error match {
      case Some(e) => faults += s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"
      case None =>
        val canon = Gate.canonical(input, sets)
        val d = Gate.digest(canon)
        digests.get(w.name, s.datasetSeed, q.k) match {
          case Some((n, ref)) =>
            if (ref != d) faults += s"k-VCC set differs from the reference ($n components; got ${canon.length})"
          case None if w.path == Path.Spark =>
            val local = localStar.getOrElseUpdate(q.k, Gate.digest(Gate.canonical(input,
              KVCCEnumerator.enumerate(graphOf(input), q.k, Variant.Star).map(_.sortedIds))))
            if (local != d) faults += "KVCCSpark disagrees with the local kernel"
          case None => ()
        }
        if (digestByK.getOrElseUpdate(q.k, d) != d)
          faults += "k-VCC set differs from another query with the same k in this run"
        if (sets.nonEmpty) faults ++= Gate.violations(graphOf(input), q.k, sets)
    }
    if (faults.nonEmpty) {
      failed += 1
      faults.foreach(i => problems += s"$what $q: $i")
    }
  }

  /** Exact counters must repeat bit for bit within the run and across runs
    * of the same seed in this checkout. They are not compared across commits:
    * a change may legitimately do different work for the same answer.
    */
  private def counters(q: Query, kind: String, values: Vector[Long], what: String): Unit = {
    val key = Counters.key(w.name, s.datasetSeed, s.seed, q, kind)
    val expected = countersSeen.get(key).map("this run" -> _) orElse ledger.get(key).map("an earlier run" -> _)
    expected match {
      case Some((where, ref)) if ref != values =>
        problems += s"$what $q: $kind counters ${values.mkString(",")} differ from $where (${ref.mkString(",")})"
      case _ => ()
    }
    countersSeen.getOrElseUpdate(key, values)
  }

  private def verify(input: Input, passes: Vector[PassRun]): Unit = {
    for ((p, i) <- passes.zipWithIndex; qr <- p.queries) {
      gate(input, qr.query, qr.sets, qr.error, qr.graph, s"pass $i")
      qr.stats.foreach(st => counters(qr.query, "kvcc", Counters.kvcc(st), s"pass $i"))
    }
  }

  // --------------------------------------------------------------- tracing

  /** The traced pass; returns the per-layer metrics and extra result-file
    * sections.
    */
  private def traced(input: Input, runS: Double): (ListMap[String, Double], ListMap[String, Any]) = {
    val tracer = new Tracer
    val (m, extra) = w.path match {
      case Path.Spark => tracedSpark(input, tracer)
      case _          => tracedLocal(input, tracer)
    }
    tracer.write(new File(s.results, s"${w.name}-seed${s.seed}-spans.tsv"))
    (m + ("trace.overhead_s" -> (m("trace.run_s") - runS)), extra)
  }

  /** Replayed queries must return the untraced queries' sets and counters;
    * `gate` and `counters` compare them with what the run saw before.
    */
  private def tracedLocal(input: Input, tracer: Tracer): (ListMap[String, Double], ListMap[String, Any]) = {
    val t0 = System.nanoTime()
    val runs = tracer.span("pass") {
      val shared = if (w.path == Path.LocalShared) tracer.span("graph.build")(AdjGraph.fromEdges(input.edges)) else null
      w.queries.map { q =>
        tracer.span("query") {
          val stats = new KvccStats
          var g: AdjGraph = shared
          val out = attempt {
            if (g == null) g = tracer.span("graph.build")(AdjGraph.fromEdges(input.edges))
            Replay.enumerate(g, q.k, q.variant, stats, tracer)
          }
          (q, stats, out, g)
        }
      }
    }
    val seconds = (System.nanoTime() - t0) / 1e9

    val replayed = runs.map { case (q, stats, out, g) =>
      gate(input, q, out.fold(_ => Vector.empty, _._1.map(_.sortedIds)), out.left.toOption,
        Option(g).map(Gate.graphRef(input, _)), "traced replay")
      counters(q, "kvcc", Counters.kvcc(stats), "traced replay")
      out.foreach { case (_, c) => counters(q, "replay", Counters.replay(c), "traced replay") }
      (q, stats, out.toOption.map(_._2))
    }

    def sum(f: KvccStats => Long, vs: Seq[Variant] = Variant.all): Double =
      replayed.filter(r => vs.contains(r._1.variant)).map(r => f(r._2)).sum.toDouble
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    def sweep(vs: Seq[Variant], suffix: String): Seq[(String, Double)] = {
      val processed = sum(_.phase1Processed, vs)
      val pruned = sum(st => st.prunedNs1 + st.prunedNs2 + st.prunedGs, vs)
      Seq(
        s"sweep.phase1_processed$suffix" -> processed,
        s"sweep.phase1_tested$suffix" -> sum(_.phase1Tested, vs),
        s"sweep.pruned_ns1$suffix" -> sum(_.prunedNs1, vs),
        s"sweep.pruned_ns2$suffix" -> sum(_.prunedNs2, vs),
        s"sweep.pruned_gs$suffix" -> sum(_.prunedGs, vs),
        s"sweep.prune_ratio$suffix" -> ratio(pruned, processed))
    }
    val replays = replayed.flatMap(_._3)
    val calls = sum(_.globalCutCalls)
    val cuts = sum(_.partitions)
    val flows = sum(_.flowTests)
    val gc = tracer.totalMs("globalcut")
    val cert = tracer.totalMs("cert")
    val flownet = tracer.totalMs("flownet.build")
    val m = ListMap(
      "graph.build_ms" -> tracer.totalMs("graph.build"),
      "graphops.kcore_ms" -> tracer.totalMs("graphops.kcore"),
      "graphops.components_ms" -> tracer.totalMs("graphops.components"),
      "globalcut.ms" -> gc,
      "globalcut.calls" -> calls,
      "globalcut.cuts" -> cuts,
      "globalcut.cut_ratio" -> ratio(cuts, calls),
      "cert.ms" -> cert,
      "flownet.build_ms" -> flownet,
      "globalcut.search_ms" -> (gc - cert - flownet),
      "loccut.flow_tests" -> flows,
      "loccut.tests_per_call" -> ratio(flows, calls),
    ) ++ sweep(Variant.all, "") ++
      Variant.all.flatMap { v =>
        val sfx = "." + Workloads.slug(v)
        (s"loccut.flow_tests$sfx" -> sum(_.flowTests, Seq(v))) +: sweep(Seq(v), sfx)
      } ++ ListMap(
      "overlap.partition_ms" -> tracer.totalMs("overlap.partition"),
      "overlap.pieces" -> replays.map(_.pieces).sum.toDouble,
      "enum.depth_max" -> replays.map(_.depthMax).maxOption.getOrElse(0).toDouble,
      "enum.largest_piece" -> replays.map(_.largestPiece).maxOption.getOrElse(0).toDouble,
      "enum.dedup_hits" -> replays.map(_.dedupHits).sum.toDouble,
      "trace.run_s" -> seconds,
    )

    // Table 2: per-k proportions of phase-1 vertices by sweep rule under
    // VCCE*, averaged over k, from the same counters.
    val star = replayed.filter(_._1.variant == Variant.Star).map(_._2)
    val table2 = if (star.isEmpty) ListMap.empty[String, Double] else {
      def avg(f: KvccStats => Long) = star.map(st => ratio(f(st).toDouble, st.phase1Processed.toDouble)).sum / star.length
      ListMap("NS_1" -> avg(_.prunedNs1), "NS_2" -> avg(_.prunedNs2), "GS" -> avg(_.prunedGs), "Non-Pru" -> avg(_.phase1Tested))
    }
    if (table2.nonEmpty)
      println(s"[perfbench] table2 ${w.name} VCCE* k=${w.ks.mkString(",")}: " +
        table2.map { case (r, v) => f"$r=${100 * v}%.1f%%" }.mkString(" "))
    (m, ListMap("table2" -> table2))
  }

  private def tracedSpark(input: Input, tracer: Tracer): (ListMap[String, Double], ListMap[String, Any]) = {
    val ss = spark.get
    val listener = new SparkTrace
    ss.sparkContext.addSparkListener(listener)
    val wall0 = System.currentTimeMillis()
    val t0 = System.nanoTime()
    // The end times are taken before waiting for the listener bus to settle.
    val (runs, seconds, wallMs) = try {
      val r = w.queries.map { q =>
        tracer.span("query") {
          q -> attempt {
            val df = tracer.span("spark.ingest")(EdgeOps.toDF(ss, input.edges))
            tracer.span("spark.enumerate")(KVCCSpark.enumerate(df, q.k, q.variant))
          }
        }
      }
      (r, (System.nanoTime() - t0) / 1e9, (System.currentTimeMillis() - wall0).toDouble)
    } finally {
      listener.await()
      ss.sparkContext.removeSparkListener(listener)
    }
    runs.foreach { case (q, out) =>
      gate(input, q, out.fold(_ => Vector.empty, _.map(_.toArray)), out.left.toOption, None, "traced run")
    }

    val kcoreJobs = listener.layerJobs("kcore")
    val enumStage = listener.enumStage
    val m = ListMap(
      "spark.ingest_ms" -> tracer.totalMs("spark.ingest"),
      "spark.kcore_ms" -> listener.layerMs("kcore"),
      // KCoreSpark checkpoints the input once, then once per peeling round.
      "spark.kcore.rounds" -> math.max(0, kcoreJobs.count(_.shortSite.startsWith("localCheckpoint at")) - 1).toDouble,
      "spark.cc_ms" -> listener.layerMs("cc"),
      "spark.cc.jobs" -> listener.layerJobs("cc").size.toDouble,
      "spark.enum_ms" -> enumStage.map(st => (st.completed - st.submitted).toDouble).getOrElse(0.0),
      "spark.enum.task_max_ms" -> enumStage.map(_.taskMaxMs.toDouble).getOrElse(0.0),
      "spark.driver_gap_ms" -> (wallMs - listener.jobUnionMs),
      "spark.jobs" -> listener.jobs.size.toDouble,
      "spark.tasks" -> listener.tasks.toDouble,
      "spark.shuffle_write_mb" -> listener.shuffleWriteBytes / 1e6,
      "spark.executor_run_ms" -> listener.executorRunMs.toDouble,
      "spark.executor_gc_ms" -> listener.executorGcMs.toDouble,
      "trace.run_s" -> seconds,
    )
    val jobs = listener.jobs.map(j => ListMap(
      "id" -> j.id, "layer" -> j.layer, "site" -> j.shortSite, "ms" -> (j.end - j.start)))
    (m, ListMap("spark_jobs" -> jobs.toVector))
  }

  // ------------------------------------------------------------- reporting

  private def manifest: ListMap[String, Any] = ListMap(
    "git_sha" -> s.gitSha,
    "source_sha256" -> s.sourceSha,
    "workload" -> w.name,
    "path" -> w.path.name,
    "dataset" -> w.dataset,
    "scale" -> w.scale,
    "dataset_seed" -> s.datasetSeed,
    "seed" -> s.seed,
    "k" -> w.ks,
    "variants" -> w.variants.map(_.name),
    "run_seconds" -> s.seconds,
    "trace" -> s.trace,
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "xmx" -> s.xmx,
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
    "jdk" -> s"${System.getProperty("java.version")} (${System.getProperty("java.vm.name")})",
    "spark_master" -> Sparks.master,
    "spark_shuffle_partitions" -> Sparks.conf.toMap.apply("spark.sql.shuffle.partitions").toInt,
    "spark_conf" -> ListMap(Sparks.conf: _*),
    "spark_used" -> (w.path == Path.Spark),
  )

  private def median(xs: Iterable[Double]): Double = {
    val v = xs.toVector.sorted
    if (v.length % 2 == 1) v(v.length / 2) else (v(v.length / 2 - 1) + v(v.length / 2)) / 2
  }

  private def writeFile(f: File, text: String): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try pw.write(text) finally pw.close()
  }
}

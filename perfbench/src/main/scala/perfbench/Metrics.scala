package perfbench

import repro.core.Variant

/** Every metric the benchmark reports, with its unit. A `--trace 0` run
  * reports `endToEnd`; a `--trace 1` run reports `perLayer`.
  */
object Metrics {

  val endToEnd: Vector[(String, String)] = Vector(
    "setup_s" -> "s",
    "run_s" -> "s",
    "query_s.max" -> "s",
  )

  /** Sweep counters, reported summed and per variant. */
  val sweepCounters: Vector[String] = Vector(
    "phase1_processed", "phase1_tested", "pruned_ns1", "pruned_ns2", "pruned_gs", "prune_ratio")

  /** `alloc_mb` (bytes allocated by an untraced pass) is reported here, with
    * no bound: on the local kernel it differs by about 30% between JVMs
    * running the same seed, with the JIT's compilation decisions.
    */
  val perLayer: Vector[(String, String)] = Vector(
    "setup.cold_s" -> "s",
    "alloc_mb" -> "MB",
    "graph.build_ms" -> "ms",
    "graphops.kcore_ms" -> "ms",
    "graphops.components_ms" -> "ms",
    "globalcut.ms" -> "ms",
    "globalcut.calls" -> "count",
    "globalcut.cuts" -> "count",
    "globalcut.cut_ratio" -> "ratio",
    "cert.ms" -> "ms",
    "flownet.build_ms" -> "ms",
    "globalcut.search_ms" -> "ms",
    "loccut.flow_tests" -> "count",
    "loccut.tests_per_call" -> "ratio",
  ) ++ sweepCounters.map(c => s"sweep.$c" -> unitOf(c)) ++
    Variant.all.flatMap { v =>
      val s = Workloads.slug(v)
      (s"loccut.flow_tests.$s" -> "count") +: sweepCounters.map(c => s"sweep.$c.$s" -> unitOf(c))
    } ++ Vector(
    "overlap.partition_ms" -> "ms",
    "overlap.pieces" -> "count",
    "enum.depth_max" -> "count",
    "enum.largest_piece" -> "vertices",
    "enum.dedup_hits" -> "count",
    "spark.ingest_ms" -> "ms",
    "spark.kcore_ms" -> "ms",
    "spark.kcore.rounds" -> "count",
    "spark.cc_ms" -> "ms",
    "spark.cc.jobs" -> "count",
    "spark.enum_ms" -> "ms",
    "spark.enum.task_max_ms" -> "ms",
    "spark.driver_gap_ms" -> "ms",
    "spark.jobs" -> "count",
    "spark.tasks" -> "count",
    "spark.shuffle_write_mb" -> "MB",
    "spark.executor_run_ms" -> "ms",
    "spark.executor_gc_ms" -> "ms",
    "trace.run_s" -> "s",
    "trace.overhead_s" -> "s",
  )

  private def unitOf(counter: String): String = if (counter.endsWith("ratio")) "ratio" else "count"
}

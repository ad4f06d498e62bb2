package perfbench

import java.io.File

/** Entry point of the benchmark JVM; `perfbench/run.py` builds the program
  * and starts this with the contract's arguments.
  *
  * {{{
  * --workload NAME --seed N --seconds S --trace 0|1
  *   [--dataset-seed N]   generator seed (default: the dataset's own)
  *   [--reference DIR]    reference digests and counters (perfbench/reference)
  *   [--results DIR]      result files, spans and the counter ledger
  *   [--record]           record reference entries instead of measuring
  * }}}
  * The last line on stdout is the result object.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val flags = Set("--record").intersect(argv.toSet)
    val code =
      try {
        val opts = argv.filterNot(flags).grouped(2).map {
          case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
          case other => throw new IllegalArgumentException(s"cannot parse arguments at ${other.mkString(" ")}")
        }.toMap
        def opt(name: String): String =
          opts.getOrElse(name, throw new IllegalArgumentException(s"missing --$name"))
        val workload = Workloads.byName(opt("workload"))
        val trace = opts.getOrElse("trace", "0") match {
          case "0" => false
          case "1" => true
          case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
        }
        val settings = Settings(
          workload = workload,
          seed = opt("seed").toLong,
          seconds = opts.getOrElse("seconds", "10").toInt,
          trace = trace,
          datasetSeed = opts.get("dataset-seed").map(_.toLong).getOrElse(workload.spec.seed),
          reference = new File(opts.getOrElse("reference", "perfbench/reference")),
          results = new File(opts.getOrElse("results", ".bench_build/perfbench/results")),
          gitSha = opts.getOrElse("git-sha", "unknown"),
          sourceSha = opts.getOrElse("source-sha", "unknown"),
          xmx = opts.getOrElse("xmx", "unknown"))
        require(settings.seconds >= 1, "--seconds must be at least 1")
        if (flags("--record")) Record.run(settings) else new Bench(settings).run()
      } catch {
        case e: IllegalArgumentException =>
          System.err.println(s"[perfbench] ${e.getMessage}")
          2
        case e: Throwable =>
          e.printStackTrace()
          1
      }
    // Exit explicitly: Spark leaves non-daemon threads behind.
    sys.exit(code)
  }
}

package repro.exp

import repro.gen.Datasets

/** Shared experiment configuration + plain-text table rendering. */
object ExpConfig {

  /** Graph scale relative to the paper's datasets (REPRO_SCALE overrides). */
  def scale: Double =
    sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(Datasets.DefaultScale)

  /** The k values of the paper's efficiency experiments (Section 6.2). */
  val kValues: Vector[Int] = Vector(20, 25, 30, 35, 40)

  /** Datasets to run (REPRO_DATASETS="DBLP,Cit" narrows the sweep). */
  def datasets: Vector[Datasets.DatasetSpec] =
    sys.env.get("REPRO_DATASETS") match {
      case Some(names) => names.split(",").map(n => Datasets.byName(n.trim)).toVector
      case None        => Datasets.all
    }
}

/** Minimal fixed-width table renderer for harness output. */
object Tables {

  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"== $title ==", line(header), sep) ++ rows.map(line)).mkString("\n")
  }

  /** Print and also persist under <repo>/bench/results/ for EXPERIMENTS.md
    * diffing (the forked bench JVM runs with cwd = bench/, jobs with cwd = repo).
    */
  def emit(fileName: String, content: String): Unit = {
    println(content)
    try {
      val cwd = java.nio.file.Paths.get("").toAbsolutePath
      val root = if (cwd.getFileName != null && cwd.getFileName.toString == "bench") cwd.getParent else cwd
      val dir = root.resolve("bench").resolve("results")
      java.nio.file.Files.createDirectories(dir)
      java.nio.file.Files.write(dir.resolve(fileName), content.getBytes("UTF-8"))
    } catch {
      case _: Exception => () // read-only checkout: stdout copy is enough
    }
  }

  def pct(x: Double): String = f"${100 * x}%.0f%%"
}

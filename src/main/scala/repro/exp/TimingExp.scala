package repro.exp

import repro.core.{KVCCEnumerator, Variant}
import repro.gen.Datasets
import repro.graph.AdjGraph

/** Figure-10-shaped experiment (reproduced as a table because it carries the
  * paper's main efficiency claim): processing time of VCCE, VCCE-N, VCCE-G
  * and VCCE* per dataset and k. The expected shape: both single-strategy
  * variants beat VCCE, VCCE* beats everything, and times fall as k rises.
  */
object TimingExp {

  final case class Row(name: String, k: Int, millisByVariant: Map[String, Double], kvccs: Int)

  def run(scale: Double = ExpConfig.scale, kValues: Seq[Int] = ExpConfig.kValues): Vector[Row] =
    ExpConfig.datasets.zipWithIndex.flatMap { case (spec, i) =>
      val g = AdjGraph.fromEdges(Datasets.generate(spec, scale))
      // Untimed warm-up, every variant at every k on the first dataset, so
      // JIT compilation does not land in the first timed rows.
      if (i == 0) for (k <- kValues; v <- Variant.all) KVCCEnumerator.enumerate(g, k, v)
      kValues.map { k =>
        var count = 0
        val times = Variant.all.map { v =>
          val t0 = System.nanoTime()
          val res = KVCCEnumerator.enumerate(g, k, v)
          val t1 = System.nanoTime()
          count = res.length
          v.name -> (t1 - t0) / 1e6
        }.toMap
        Row(spec.name, k, times, count)
      }
    }

  def render(rows: Seq[Row], scale: Double): String = {
    val header = Seq("Dataset", "k", "#k-VCC") ++ Variant.all.map(v => s"${v.name} (ms)") ++
      Seq("speedup VCCE/VCCE*")
    val body = rows.map { r =>
      val basic = r.millisByVariant(Variant.Basic.name)
      val star = r.millisByVariant(Variant.Star.name)
      Seq(r.name, r.k.toString, r.kvccs.toString) ++
        Variant.all.map(v => f"${r.millisByVariant(v.name)}%.0f") ++
        Seq(f"${basic / math.max(star, 0.001)}%.1fx")
    }
    Tables.render(f"Fig 10 (as table): processing time by variant (scale=$scale%.5f)", header, body)
  }

  def runAndEmit(): Vector[Row] = {
    val scale = ExpConfig.scale
    val rows = run(scale)
    Tables.emit("fig10_timing.txt", render(rows, scale))
    rows
  }
}

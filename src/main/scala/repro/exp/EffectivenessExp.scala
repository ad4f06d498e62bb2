package repro.exp

import repro.core.{KEcc, KVCCEnumerator, Variant}
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}
import scala.util.Random

/** Figures-7/8/9-shaped experiment: average diameter, edge density and
  * clustering coefficient of the k-cores, k-ECCs and k-VCCs of a graph.
  * Expected shape (the paper's effectiveness claim): for the same k, k-VCCs
  * have the smallest diameter and the largest density/clustering coefficient.
  *
  * Runs on a compact planted graph (overlapping dense blocks + sparse bridges)
  * so the O(n^3) Stoer–Wagner baseline stays cheap.
  */
object EffectivenessExp {

  final case class Row(k: Int, model: String, count: Int, avgDiam: Double,
      avgDensity: Double, avgClustering: Double)

  /** Small fixture: 10 dense blocks with κ targets ~8–28, chained into a
    * random tree by 2–5 shared vertices per link.
    */
  def fixture(seed: Long = 7): AdjGraph = {
    val rnd = new Random(seed)
    val specs = Vector.tabulate(10) { i =>
      val kappa = 8 + 2 * i
      val size = (kappa * 1.4).toInt + rnd.nextInt(8)
      GraphGen.BlockSpec(size, math.min(0.95, kappa * 1.2 / (size - 1)), overlap = 2 + rnd.nextInt(4))
    }
    val planted = GraphGen.plantedBlocks(specs, rnd)
    // The shared vertices let k-cores and k-ECCs merge blocks that k-VCCs separate.
    AdjGraph.fromEdges(planted.edges)
  }

  def run(kValues: Seq[Int] = Vector(8, 12, 16, 20)): Vector[Row] = {
    val g = fixture()
    kValues.toVector.flatMap { k =>
      val cores = GraphOps.componentSubgraphs(GraphOps.kCore(g, k))
      val eccs = KEcc.enumerate(g, k)
      val vccs = KVCCEnumerator.enumerate(g, k, Variant.Star)
      Seq(
        summarize(k, "k-core", cores),
        summarize(k, "k-ECC", eccs),
        summarize(k, "k-VCC", vccs))
    }
  }

  private def summarize(k: Int, model: String, subgraphs: Seq[AdjGraph]): Row = {
    if (subgraphs.isEmpty) Row(k, model, 0, 0, 0, 0)
    else Row(
      k, model, subgraphs.length,
      subgraphs.map(GraphOps.diameter(_).toDouble).sum / subgraphs.length,
      subgraphs.map(GraphOps.edgeDensity).sum / subgraphs.length,
      subgraphs.map(GraphOps.clusteringCoefficient).sum / subgraphs.length)
  }

  def render(rows: Seq[Row]): String = {
    val header = Seq("k", "model", "#subgraphs", "avg diameter", "avg edge density", "avg clustering coeff")
    val body = rows.map(r => Seq(
      r.k.toString, r.model, r.count.toString,
      f"${r.avgDiam}%.2f", f"${r.avgDensity}%.3f", f"${r.avgClustering}%.3f"))
    Tables.render("Figs 7-9 (as table): cohesiveness of k-core vs k-ECC vs k-VCC", header, body)
  }

  def runAndEmit(): Vector[Row] = {
    val rows = run()
    Tables.emit("fig7_9_effectiveness.txt", render(rows))
    rows
  }
}

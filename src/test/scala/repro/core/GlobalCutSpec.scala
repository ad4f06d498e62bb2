package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}

class GlobalCutSpec extends SparkSpec {

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph =
    AdjGraph.fromEdges(
      TestGraphs.erdosRenyi(n, p, seed) ++ (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))

  /** The contract every variant of GLOBAL-CUT* must meet. */
  private def checkContract(g: AdjGraph, k: Int, variant: Variant): Unit = {
    val label = variant.name
    val kappa = BruteForce.kappaNaive(g)
    GlobalCutStar.find(g, k, variant) match {
      case None =>
        assert(kappa >= k || g.n <= k, s"$label: returned no cut but κ=$kappa < $k")
      case Some(cut) =>
        assert(cut.length < k, s"$label: cut size ${cut.length} >= k=$k")
        assert(kappa < k, s"$label: found cut but κ=$kappa >= $k")
        // The cut must disconnect the ORIGINAL graph (not just the certificate).
        val keep = (0 until g.n).filter(v => !cut.contains(v)).toArray
        assert(keep.nonEmpty)
        val comps = GraphOps.connectedComponents(g.induced(keep))
        assert(comps.length >= 2, s"$label: returned set is not a vertex cut of G")
    }
  }

  for (seed <- 1 to 20; k <- Seq(2, 3, 4); variant <- Variant.all) {
    // VCCE's contract tests keep their established ids.
    val name =
      if (variant == Variant.Basic) s"GLOBAL-CUT basic contract on random graphs (seed=$seed, k=$k)"
      else s"GLOBAL-CUT* contract (${variant.name}, seed=$seed, k=$k)"
    test(name) {
      val g = randomConnected(9 + seed % 4, 0.35 + 0.05 * (seed % 5), seed * 3)
      checkContract(g, k, variant)
    }
  }

  test("no cut in a clique") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(8, 1.0, 1))
    for (k <- 1 to 7; v <- Variant.all) {
      assert(GlobalCutStar.find(g, k, v).isEmpty, s"${v.name} k=$k")
    }
  }

  test("two cliques sharing j vertices: cut found iff j < k") {
    for (j <- 1 to 3; k <- 2 to 4) {
      val shared = (0 until j).map(_.toLong)
      val a = shared ++ (10L until 16L)
      val b = shared ++ (20L until 26L)
      val rnd = new scala.util.Random(1)
      val g = AdjGraph.fromEdges(
        GraphGen.erdosRenyi(a, 1.0, rnd) ++ GraphGen.erdosRenyi(b, 1.0, rnd))
      Variant.all.foreach { v =>
        val cut = GlobalCutStar.find(g, k, v)
        if (j < k) {
          assert(cut.isDefined, s"${v.name} j=$j k=$k: expected the shared set as a cut")
          assert(cut.get.length <= j, s"${v.name} j=$j k=$k")
        } else assert(cut.isEmpty, s"${v.name} j=$j k=$k")
      }
    }
  }

  test("stats: phase-1 accounting sums to processed") {
    val g = randomConnected(14, 0.5, 99)
    for (v <- Variant.all) {
      val stats = new KvccStats
      GlobalCutStar.find(g, 3, v, stats)
      val pruned = stats.prunedNs1 + stats.prunedNs2 + stats.prunedGs
      assert(stats.phase1Processed > 0, v.name)
      assert(pruned + stats.phase1Tested <= stats.phase1Processed, v.name)
      if (v == Variant.Basic) {
        // VCCE sweeps nothing: every processed vertex reaches LOC-CUT.
        assert(pruned == 0)
        assert(stats.phase1Tested == stats.phase1Processed)
      }
    }
  }
}

package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}

class GlobalCutSpec extends SparkSpec {

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph =
    AdjGraph.fromEdges(
      TestGraphs.erdosRenyi(n, p, seed) ++ (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))

  /** Asserts that `cut` is a vertex cut of `g` with fewer than k vertices. */
  private def assertCutOf(g: AdjGraph, cut: Array[Int], k: Int, label: String): Unit = {
    assert(cut.length < k, s"$label: cut size ${cut.length} >= k=$k")
    // The cut must disconnect the ORIGINAL graph (not just the certificate).
    val keep = (0 until g.n).filter(v => !cut.contains(v)).toArray
    assert(keep.nonEmpty)
    val comps = GraphOps.connectedComponents(g.induced(keep))
    assert(comps.length >= 2, s"$label: returned set is not a vertex cut of G")
  }

  /** The contract every variant of GLOBAL-CUT* must meet. */
  private def checkContract(g: AdjGraph, k: Int, variant: Variant): Unit = {
    val label = variant.name
    val kappa = BruteForce.kappaNaive(g)
    GlobalCutStar.find(g, k, variant) match {
      case None =>
        assert(kappa >= k || g.n <= k, s"$label: returned no cut but κ=$kappa < $k")
      case Some(cut) =>
        assert(kappa < k, s"$label: found cut but κ=$kappa >= $k")
        assertCutOf(g, cut, k, label)
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

  /** The probe's pair: GLOBAL-CUT's first phase-1 test, run on `g` itself. */
  private def probePair(g: AdjGraph, variant: Variant): (Int, Int) = {
    val u0 = g.minDegreeVertex
    val v0 =
      if (variant == Variant.Basic) (0 until g.n).find(_ != u0).get
      else {
        val d = GraphOps.bfsDistances(g, u0)
        (0 until g.n).filter(_ != u0).maxBy(v => (d(v), -v))
      }
    (u0, v0)
  }

  /** k = 3. Layers L0..L5 of three vertices each, every layer a triangle and
    * consecutive layers joined completely: a 3-connected "thick path". A
    * 7-clique hangs off S, two vertices of L2, so S is a 2-cut. The
    * min-degree vertex is in L0, the farthest vertex from it is in L5, and
    * the second-lowest id is in L2 off S: both probes meet 3 disjoint paths.
    */
  private val probeMiss: AdjGraph = {
    def id(l: Int, p: Int): Long =
      if (l == 0 && p == 0) 0L else if (l == 2 && p == 2) 1L else 1000L + 10 * l + p
    val layers = (0 to 5).map(l => (0 until 3).map(id(l, _)))
    val rnd = new scala.util.Random(1)
    val thick = layers.flatMap(GraphGen.erdosRenyi(_, 1.0, rnd)) ++
      layers.sliding(2).flatMap { case Seq(a, b) => for (x <- a; y <- b) yield (x, y) }
    val clique = (2000L until 2007L)
    val s = Seq(id(2, 0), id(2, 1))
    AdjGraph.fromEdges(thick ++ GraphGen.erdosRenyi(clique, 1.0, rnd) ++ (for (x <- clique; y <- s) yield (x, y)))
  }

  test("a cut the probe misses is found on the certificate, every variant") {
    val k = 3
    for (v <- Variant.all) {
      val (u0, v0) = probePair(probeMiss, v)
      assert(!probeMiss.hasEdge(u0, v0), v.name)
      assert(new FlowNetwork(probeMiss).maxFlowUpTo(u0, v0, k) >= k, s"${v.name}: the probe would find a cut")
      val cut = GlobalCutStar.find(probeMiss, k, v)
      assert(cut.isDefined, s"${v.name}: missed the 2-cut")
      assertCutOf(probeMiss, cut.get, k, v.name)
    }
  }

  test("stats: a cut found by the probe counts one processed and one tested vertex") {
    // Two cliques sharing {100, 101}: A = {1..4} has the lowest degree, and
    // id 0 and every other vertex of B = {0, 5..9} lie across the 2-cut.
    val shared = Vector(100L, 101L)
    val rnd = new scala.util.Random(1)
    val g = AdjGraph.fromEdges(
      GraphGen.erdosRenyi(shared ++ (1L to 4L), 1.0, rnd) ++
        GraphGen.erdosRenyi(shared ++ (0L +: (5L to 9L)), 1.0, rnd))
    for (v <- Variant.all) {
      val stats = new KvccStats
      val cut = GlobalCutStar.find(g, 3, v, stats)
      assert(cut.map(_.map(g.ids).toSet).contains(shared.toSet), v.name)
      assert(stats.phase1Processed == 1 && stats.phase1Tested == 1 && stats.flowTests == 1, s"${v.name}: $stats")
      assert(stats.prunedNs1 + stats.prunedNs2 + stats.prunedGs == 0, v.name)
    }
  }

  test("stats: phase-1 accounting sums to processed") {
    for (g <- Seq(randomConnected(14, 0.5, 99), probeMiss); v <- Variant.all) {
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

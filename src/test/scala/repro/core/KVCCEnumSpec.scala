package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.gen.{Datasets, GraphGen}
import repro.graph.AdjGraph

/** Ground-truth validation of KVCC-ENUM against the subset-enumeration
  * oracle on small graphs, for every variant.
  */
class KVCCEnumSpec extends SparkSpec {

  private def asSets(result: Seq[AdjGraph]): Set[Set[Long]] =
    result.map(_.ids.toSet).toSet

  test("Fig. 2-style example: two 3-VCCs sharing a 2-cut") {
    // Two K5s sharing 2 vertices (ids 0,1): for k=3 both K5s are 3-VCCs.
    val rnd = new scala.util.Random(3)
    val a = GraphGen.erdosRenyi(IndexedSeq(0L, 1L, 10L, 11L, 12L), 1.0, rnd)
    val b = GraphGen.erdosRenyi(IndexedSeq(0L, 1L, 20L, 21L, 22L), 1.0, rnd)
    val g = AdjGraph.fromEdges(a ++ b)
    for (variant <- Variant.all) {
      val res = KVCCEnumerator.enumerate(g, 3, variant)
      assert(asSets(res) == Set(
        Set(0L, 1L, 10L, 11L, 12L),
        Set(0L, 1L, 20L, 21L, 22L)), variant.name)
    }
    // For k=2 the union is 2-connected: a single 2-VCC.
    for (variant <- Variant.all) {
      val res = KVCCEnumerator.enumerate(g, 2, variant)
      assert(asSets(res) == Set(g.ids.toSet), variant.name)
    }
  }

  test("a clique is its own k-VCC for all k < n") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(7, 1.0, 1))
    for (k <- 1 to 6; variant <- Variant.all) {
      val res = KVCCEnumerator.enumerate(g, k, variant)
      assert(asSets(res) == Set(g.ids.toSet), s"${variant.name} k=$k")
    }
    for (variant <- Variant.all)
      assert(KVCCEnumerator.enumerate(g, 7, variant).isEmpty, variant.name)
  }

  test("an empty k-core and k >= n return empty without hanging the pool") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val path = AdjGraph.fromEdges((0L until 20L).map(i => (i, i + 1)))
    val clique = AdjGraph.fromEdges(TestGraphs.erdosRenyi(6, 1.0, 1))
    val empty = AdjGraph.fromEdges(Nil)
    val cases = Seq((path, 2), (path, 5), (clique, 6), (clique, 7), (clique, 50), (empty, 1), (empty, 3))
    for ((g, k) <- cases; variant <- Variant.all; threads <- Seq(1, 4)) {
      val stats = new KvccStats
      val res = Await.result(Future(KVCCEnumerator.enumerate(g, k, variant, stats, threads)), 30.seconds)
      assert(res.isEmpty, s"n=${g.n} k=$k ${variant.name} threads=$threads")
      assert(stats.globalCutCalls == 0)
    }
  }

  test("threads must be positive") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(6, 1.0, 1))
    assertThrows[IllegalArgumentException](KVCCEnumerator.enumerate(g, 2, Variant.Star, threads = 0))
  }

  test("k=1: each connected component with >= 2 vertices is a 1-VCC") {
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (5L, 6L)))
    for (variant <- Variant.all) {
      val res = KVCCEnumerator.enumerate(g, 1, variant)
      assert(asSets(res) == Set(Set(0L, 1L, 2L), Set(5L, 6L)), variant.name)
    }
  }

  // Brute-force cross-validation: many random graphs, all variants.
  for (seed <- 1 to 30; k <- Seq(2, 3)) {
    test(s"matches brute-force oracle (seed=$seed, k=$k)") {
      val n = 6 + seed % 3 // 6..8 (keeps the exponential oracle cheap)
      val p = 0.3 + 0.07 * (seed % 5)
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(n, p, seed * 37) ++
          (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))
      val expected = BruteForce.kvccNaive(g, k)
      for (variant <- Variant.all) {
        val got = asSets(KVCCEnumerator.enumerate(g, k, variant))
        assert(got == expected, s"${variant.name}: got=$got expected=$expected")
      }
    }
  }

  // Planted blocks: the enumeration must rediscover each block.
  for (seed <- 1 to 8; k <- Seq(3, 4)) {
    test(s"planted near-clique blocks are recovered (seed=$seed, k=$k)") {
      val planted = TestGraphs.plantedTiny(k, blocks = 4, seed = seed)
      val g = AdjGraph.fromEdges(planted.edges)
      val res = KVCCEnumerator.enumerate(g, k, Variant.Star)
      // Every k-connected planted block must appear inside some k-VCC.
      planted.blockVertexSets.foreach { blk =>
        val sub = g.induced((0 until g.n).filter(v => blk.contains(g.ids(v))).toArray)
        if (VertexConnectivity.isKConnected(sub, k)) {
          assert(
            res.exists(r => blk.subsetOf(r.ids.toSet)),
            s"block $blk not contained in any k-VCC")
        }
      }
    }
  }

  /** Every `KvccStats` counter on the Cnr substitute (generator ids, scale
    * 1/32), as recorded at commit 0e2c13d: calls, partitions, flow tests,
    * phase-1 processed, phase-1 tested, NS1, NS2, GS. A change that moves a
    * counter on purpose updates this table and names the move in CHANGES.md.
    */
  private val cnrCounters: Map[(Int, String), Seq[Long]] = Map(
    (20, "VCCE") -> Seq(33L, 16L, 1964L, 2152L, 2152L, 0L, 0L, 0L),
    (20, "VCCE-N") -> Seq(33L, 16L, 138L, 1300L, 36L, 376L, 888L, 0L),
    (20, "VCCE-G") -> Seq(33L, 16L, 224L, 1300L, 430L, 0L, 0L, 870L),
    (20, "VCCE*") -> Seq(33L, 16L, 113L, 1300L, 22L, 420L, 26L, 832L),
    (40, "VCCE") -> Seq(19L, 8L, 2210L, 1535L, 1535L, 0L, 0L, 0L),
    (40, "VCCE-N") -> Seq(20L, 9L, 910L, 1077L, 213L, 366L, 498L, 0L),
    (40, "VCCE-G") -> Seq(20L, 9L, 1127L, 1077L, 802L, 0L, 0L, 275L),
    (40, "VCCE*") -> Seq(20L, 9L, 896L, 1077L, 203L, 371L, 235L, 268L))

  test("KvccStats on the Cnr substitute equal their recorded values, every variant, 1 and 4 threads") {
    val g = AdjGraph.fromEdges(Datasets.generate(Datasets.byName("Cnr"), 1.0 / 32))
    for (k <- Seq(20, 40); variant <- Variant.all; threads <- Seq(1, 4)) {
      val s = new KvccStats
      KVCCEnumerator.enumerate(g, k, variant, s, threads)
      val got = Seq(s.globalCutCalls, s.partitions, s.flowTests, s.phase1Processed, s.phase1Tested,
        s.prunedNs1, s.prunedNs2, s.prunedGs)
      assert(got == cnrCounters((k, variant.name)), s"k=$k ${variant.name} threads=$threads")
    }
  }
}

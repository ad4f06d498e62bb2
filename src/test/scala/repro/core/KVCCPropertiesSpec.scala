package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.TestGraphs.GraphViews
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}
import scala.util.Random

/** Structural properties from Section 2.2 + cross-variant equivalence on
  * graphs too large for the brute-force oracle.
  */
class KVCCPropertiesSpec extends SparkSpec {

  /** Every `Long` field of a `KvccStats`, found by reflection, so a counter
    * added later is covered without editing this spec.
    */
  private val counterFields =
    classOf[KvccStats].getDeclaredFields.toVector.filter(_.getType == java.lang.Long.TYPE)
  counterFields.foreach(_.setAccessible(true))

  private def counters(s: KvccStats): Vector[(String, Long)] =
    counterFields.map(f => f.getName -> f.getLong(s))

  private def mediumPlanted(seed: Long, blocks: Int, k: Int): AdjGraph = {
    val rnd = new Random(seed)
    val specs = Vector.fill(blocks) {
      val size = k + 4 + rnd.nextInt(6)
      GraphGen.BlockSpec(size, 0.8, overlap = 1 + rnd.nextInt(k - 1))
    }
    val planted = GraphGen.plantedBlocks(specs, rnd)
    AdjGraph.fromEdges(planted.edges)
  }

  /** One run's k-VCCs as sorted id lists, in the order returned, and its
    * counters. Every GLOBAL-CUT call either partitions or emits a k-VCC, so
    * a task whose counters were not summed shows as a missing call.
    */
  private def run(g: AdjGraph, k: Int, variant: Variant, threads: Int): (Vector[Vector[Long]], Vector[(String, Long)]) = {
    val stats = new KvccStats
    val res = KVCCEnumerator.enumerate(g, k, variant, stats, threads)
    assert(stats.globalCutCalls == stats.partitions + res.length, stats)
    (res.map(_.sortedIds.toVector), counters(stats))
  }

  /** The four variants return the same k-VCCs, in canonical order, and each
    * returns the same sequence and counters on 1, 2, 4 and 8 threads.
    */
  private def assertVariantsAgree(g: AdjGraph, k: Int): Unit = {
    val (reference, _) = run(g, k, Variant.Basic, 1)
    assert(reference == reference.sorted(KVCCEnumerator.canonicalOrder), "not in canonical order")
    for (variant <- Variant.all) {
      val one = run(g, k, variant, 1)
      assert(one._1 == reference, s"${variant.name} diverges from VCCE (k=$k)")
      for (threads <- Seq(2, 4, 8))
        assert(run(g, k, variant, threads) == one, s"${variant.name} k=$k threads=$threads")
    }
  }

  // --- cross-variant equivalence (the sweeps must never change the result,
  // and the thread count must change neither the result nor the counters) ---

  for (seed <- 1 to 15; k <- Seq(3, 4, 5)) {
    test(s"all variants produce the same k-VCC set (seed=$seed, k=$k)") {
      assertVariantsAgree(mediumPlanted(seed, blocks = 5 + seed % 3, k = k), k)
    }
  }

  for (seed <- 1 to 10) {
    test(s"variants agree on ER graphs (seed=$seed)") {
      val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(24, 0.3, seed * 7))
      for (k <- Seq(3, 4)) assertVariantsAgree(g, k)
    }
  }

  test("stress: a chain of 200 K_(k+2) blocks gives the same answer and counters 20 times at 4 threads") {
    // Block b is a clique on ids 3b .. 3b+4; neighbouring blocks share the
    // k−1 = 2 ids 3b+3, 3b+4, a cut, so every block is its own 3-VCC and the
    // recursion runs deep (the chain) and wide (the blocks).
    val k = 3
    val blocks = 200
    val stride = (k + 2) - (k - 1)
    val edges = for {
      b <- 0 until blocks
      i <- 0 until k + 2
      j <- i + 1 until k + 2
    } yield ((b * stride + i).toLong, (b * stride + j).toLong)
    val g = AdjGraph.fromEdges(edges)
    val expected = (0 until blocks)
      .map(b => Vector.range(b * stride, b * stride + k + 2).map(_.toLong))
      .sorted(KVCCEnumerator.canonicalOrder)
    val first = run(g, k, Variant.Star, 4)
    assert(first._1 == expected)
    assert(first._2.toMap.apply("partitions") >= blocks - 1)
    for (_ <- 1 until 20) assert(run(g, k, Variant.Star, 4) == first)
  }

  test("KvccStats += sums every counter") {
    assert(counterFields.length >= 8, counterFields.map(_.getName))
    val a = new KvccStats
    val b = new KvccStats
    for ((f, i) <- counterFields.zipWithIndex) {
      f.setLong(a, i + 1L)
      f.setLong(b, 100L * (i + 1))
    }
    a += b
    for ((f, i) <- counterFields.zipWithIndex)
      assert(f.getLong(a) == 101L * (i + 1), f.getName)
    assert(counters(b) == counterFields.indices.map(i => counterFields(i).getName -> 100L * (i + 1)))
  }

  // --- structural properties of every enumerated k-VCC ---

  private def forAllResults(f: (AdjGraph, Int, Vector[AdjGraph]) => Unit): Unit = {
    for (seed <- 1 to 8; k <- Seq(3, 4)) {
      val g = mediumPlanted(seed * 11, blocks = 6, k = k)
      val res = KVCCEnumerator.enumerate(g, k, Variant.Star)
      f(g, k, res)
    }
  }

  test("each result is k-vertex connected (Lemma 1)") {
    forAllResults { (_, k, res) =>
      res.foreach { vcc =>
        assert(vcc.n > k)
        assert(VertexConnectivity.kappa(vcc) >= k, s"|V|=${vcc.n} κ=${VertexConnectivity.kappa(vcc)} < $k")
      }
    }
  }

  test("results are subgraphs of the input with induced edges") {
    forAllResults { (g, _, res) =>
      val edgeSet = g.edgeList.toSet
      res.foreach { vcc =>
        vcc.edgeList.foreach(e => assert(edgeSet.contains(e)))
        // Induced: any input edge between two member vertices is present.
        val members = vcc.ids.toSet
        g.edgeList.foreach { case (a, b) =>
          if (members.contains(a) && members.contains(b))
            assert(vcc.hasEdge(vcc.ids.indexOf(a), vcc.ids.indexOf(b)))
        }
      }
    }
  }

  test("pairwise overlap is smaller than k (Property 1)") {
    forAllResults { (_, k, res) =>
      for (i <- res.indices; j <- i + 1 until res.length) {
        val overlap = res(i).ids.toSet.intersect(res(j).ids.toSet)
        assert(overlap.size < k, s"overlap=${overlap.size} >= $k")
      }
    }
  }

  test("no result contains another (Lemma 3, redundancy-free)") {
    forAllResults { (_, _, res) =>
      for (i <- res.indices; j <- res.indices if i != j) {
        assert(!res(i).ids.toSet.subsetOf(res(j).ids.toSet))
      }
    }
  }

  test("component count is below n/2 (Theorem 6)") {
    forAllResults { (g, _, res) => assert(res.length <= g.n / 2) }
  }

  test("diameter bound (Theorem 2)") {
    forAllResults { (_, _, res) =>
      res.foreach { vcc =>
        val kappa = VertexConnectivity.kappa(vcc)
        val bound = (vcc.n - 2) / kappa + 1
        assert(GraphOps.diameter(vcc) <= bound)
      }
    }
  }

  test("each k-VCC is nested in a k-core and in a k-ECC (Theorem 3)") {
    forAllResults { (g, k, res) =>
      val core = GraphOps.kCore(g, k).ids.toSet
      val eccs = KEcc.enumerate(g, k).map(_.ids.toSet)
      res.foreach { vcc =>
        val ids = vcc.ids.toSet
        assert(ids.subsetOf(core), "k-VCC not inside the k-core")
        assert(eccs.exists(ids.subsetOf(_)), "k-VCC not inside any k-ECC")
        assert(vcc.minDegree >= k, "k-VCC must itself be a k-core")
      }
    }
  }

  test("stats counters accumulate across a run") {
    val g = mediumPlanted(5, blocks = 6, k = 4)
    val stats = new KvccStats
    KVCCEnumerator.enumerate(g, 4, Variant.Star, stats)
    assert(stats.globalCutCalls > 0)
    assert(stats.phase1Processed > 0)
    val total = stats.proportionNs1 + stats.proportionNs2 + stats.proportionGs + stats.proportionNonPruned
    assert(total <= 1.0 + 1e-9)
  }

  test("sweeps reduce the number of flow tests") {
    val g = mediumPlanted(9, blocks = 8, k = 4)
    val basic = new KvccStats
    KVCCEnumerator.enumerate(g, 4, Variant.Basic, basic)
    val star = new KvccStats
    KVCCEnumerator.enumerate(g, 4, Variant.Star, star)
    assert(star.flowTests <= basic.flowTests,
      s"VCCE* ran ${star.flowTests} flow tests, VCCE ${basic.flowTests}")
  }
}

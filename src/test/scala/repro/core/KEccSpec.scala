package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.TestGraphs.GraphViews
import repro.graph.{AdjGraph, GraphOps}

class KEccSpec extends SparkSpec {

  /** Naive global min edge cut: try all bipartitions (n ≤ ~12). */
  private def minCutNaive(g: AdjGraph): Int = {
    require(g.n >= 2)
    var best = Int.MaxValue
    val edges = g.edgeList.map { case (a, b) =>
      (g.ids.indexOf(a), g.ids.indexOf(b))
    }
    var mask = 1
    val limit = 1 << (g.n - 1) // fix vertex n-1 on one side
    while (mask < limit) {
      val cross = edges.count { case (a, b) =>
        ((mask >> a) & 1) != ((mask >> b) & 1)
      }
      if (cross < best) best = cross
      mask += 1
    }
    best
  }

  for (seed <- 1 to 20) {
    test(s"Stoer-Wagner matches naive min cut (seed=$seed)") {
      val n = 5 + seed % 5
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(n, 0.45, seed * 3) ++
          (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))
      val (cut, side) = KEcc.stoerWagner(g)
      assert(cut == minCutNaive(g), s"n=$n")
      // The side realizes the cut value.
      val inSide = side.toSet
      val cross = g.edgeList.count { case (a, b) =>
        inSide.contains(g.ids.indexOf(a)) != inSide.contains(g.ids.indexOf(b))
      }
      assert(cross == cut)
      assert(side.nonEmpty && side.length < g.n)
    }
  }

  test("two triangles sharing one vertex form ONE 2-ECC (free-rider effect)") {
    // The bowtie is 2-edge-connected as a whole — the paper's motivating
    // example of why edge connectivity merges components a k-VCC separates.
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L), (2L, 3L), (3L, 4L), (2L, 4L)))
    assert(KEcc.enumerate(g, 2).map(_.ids.toSet).toSet == Set(Set(0L, 1L, 2L, 3L, 4L)))
    // ... while the 2-VCCs are the two triangles.
    assert(
      KVCCEnumerator.enumerate(g, 2).map(_.ids.toSet).toSet ==
        Set(Set(0L, 1L, 2L), Set(2L, 3L, 4L)))
  }

  test("k-ECCs of two triangles joined by a bridge (k=2)") {
    val g = AdjGraph.fromEdges(Seq(
      (0L, 1L), (1L, 2L), (0L, 2L), // triangle A
      (2L, 9L),                     // bridge
      (9L, 3L), (3L, 4L), (9L, 4L)  // triangle B
    ))
    val res = KEcc.enumerate(g, 2).map(_.ids.toSet).toSet
    assert(res == Set(Set(0L, 1L, 2L), Set(9L, 3L, 4L)))
  }

  test("k-ECCs are vertex-disjoint") {
    for (seed <- 1 to 8) {
      val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(20, 0.3, seed))
      val res = KEcc.enumerate(g, 3)
      for (i <- res.indices; j <- i + 1 until res.length)
        assert(res(i).ids.toSet.intersect(res(j).ids.toSet).isEmpty)
    }
  }

  for (seed <- 1 to 10; k <- Seq(2, 3)) {
    test(s"every k-ECC is k-edge-connected (seed=$seed, k=$k)") {
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(10, 0.4, seed * 13) ++
          (0 until 9).map(i => (i.toLong, (i + 1).toLong)))
      KEcc.enumerate(g, k).foreach { ecc =>
        assert(ecc.n >= 2)
        assert(minCutNaive(ecc) >= k, s"λ=${minCutNaive(ecc)} < $k")
      }
    }
  }

  for (seed <- 1 to 4) {
    test(s"k-ECC covers every k-VCC (Whitney/Theorem 3) (seed=$seed)") {
      val k = 3
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(9, 0.45, seed * 7) ++
          (0 until 8).map(i => (i.toLong, (i + 1).toLong)))
      val eccs = KEcc.enumerate(g, k).map(_.ids.toSet)
      BruteForce.kvccNaive(g, k).foreach { vcc =>
        assert(eccs.exists(vcc.subsetOf(_)), s"k-VCC $vcc not inside any k-ECC")
      }
    }
  }

  test("k-core contains the union of all k-ECCs") {
    for (seed <- 1 to 5) {
      val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(18, 0.35, seed))
      val core = GraphOps.kCore(g, 3).ids.toSet
      KEcc.enumerate(g, 3).foreach(ecc => assert(ecc.ids.toSet.subsetOf(core)))
    }
  }
}

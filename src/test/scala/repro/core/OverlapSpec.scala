package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.TestGraphs.GraphViews
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}
import scala.util.Random

class OverlapSpec extends SparkSpec {

  test("partition of two triangles sharing a vertex") {
    // 0-1-2 triangle, 2-3-4 triangle; cut = {2}
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L), (2L, 3L), (3L, 4L), (2L, 4L)))
    val parts = Overlap.partition(g, Array(2))
    assert(parts.length == 2)
    assert(parts.map(_.ids.toSet).toSet == Set(Set(0L, 1L, 2L), Set(2L, 3L, 4L)))
    parts.foreach(p => assert(p.m == 3)) // induced edges of each triangle
  }

  test("the cut is duplicated into every part, with its induced edges") {
    // Two K4s sharing the edge (0,1).
    val rnd = new scala.util.Random(5)
    val a = GraphGen.erdosRenyi(IndexedSeq(0L, 1L, 2L, 3L), 1.0, rnd)
    val b = GraphGen.erdosRenyi(IndexedSeq(0L, 1L, 4L, 5L), 1.0, rnd)
    val g = AdjGraph.fromEdges(a ++ b)
    val cut = Array(g.ids.indexOf(0L), g.ids.indexOf(1L))
    val parts = Overlap.partition(g, cut)
    assert(parts.length == 2)
    parts.foreach { p =>
      assert(p.ids.toSet.contains(0L) && p.ids.toSet.contains(1L))
      // The cut edge (0,1) is present in both parts.
      assert(p.hasEdge(p.ids.indexOf(0L), p.ids.indexOf(1L)))
    }
  }

  test("partition rejects a non-cut") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(6, 1.0, 1)) // clique
    intercept[IllegalArgumentException] {
      Overlap.partition(g, Array(0))
    }
  }

  test("a rejected non-cut names the piece's size and the cut's original ids") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(6, 1.0, 1, offset = 100L)) // K6, ids 100..105
    val e = intercept[IllegalArgumentException] {
      Overlap.partition(g, Array(g.ids.indexOf(101L), g.ids.indexOf(104L)))
    }
    assert(e.getMessage.contains("removing 2 vertices (ids 101, 104)"), e.getMessage)
    assert(e.getMessage.contains("n=6, m=15"), e.getMessage)
    assert(e.getMessage.contains("left 1 component(s)"), e.getMessage)
  }

  /** Reference: the partition built through a copy of G − S, whose
    * components are mapped back to g's indices before the parts are built.
    */
  private def partitionViaCopy(g: AdjGraph, cut: Array[Int]): Vector[AdjGraph] = {
    val inCut = new Array[Boolean](g.n)
    cut.foreach(inCut(_) = true)
    val keep = (0 until g.n).filter(!inCut(_)).toArray
    val comps = GraphOps.connectedComponents(g.induced(keep))
    require(comps.length >= 2, "not a cut")
    comps.map(comp => g.induced(comp.map(keep) ++ cut))
  }

  private def assertSameParts(got: Vector[AdjGraph], expected: Vector[AdjGraph]): Unit = {
    assert(got.length == expected.length)
    got.zip(expected).foreach { case (p, q) =>
      assert(p.ids.toSeq == q.ids.toSeq)
      assert(p.offsets.toSeq == q.offsets.toSeq)
      assert(p.adj.toSeq == q.adj.toSeq)
    }
  }

  for (seed <- 1 to 12) {
    test(s"partition equals the partition through a copy of G − S (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 12 + rnd.nextInt(20)
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(n, 0.1 + 0.2 * rnd.nextDouble(), seed) ++ (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))
      // Minimum cuts from GLOBAL-CUT, and random vertex sets that separate g.
      val found = Seq(2, 4, 8, g.n).flatMap(k => GlobalCutStar.find(g, k, Variant.Star))
      val random = Seq.fill(60)(0.2 + 0.6 * rnd.nextDouble())
        .map(q => rnd.shuffle((0 until g.n).filter(_ => rnd.nextDouble() < q)).toArray)
        .filter { s =>
          val rest = (0 until g.n).filterNot(s.toSet).toArray
          GraphOps.connectedComponents(g.induced(rest)).length >= 2
        }
      assert(found.nonEmpty && random.nonEmpty)
      for (cut <- found ++ random) assertSameParts(Overlap.partition(g, cut), partitionViaCopy(g, cut))
    }
  }

  for (seed <- 1 to 10) {
    test(s"partition invariants on random graphs (seed=$seed)") {
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(12, 0.25, seed) ++ (0 until 11).map(i => (i.toLong, (i + 1).toLong)))
      // Find any true cut via brute force: smallest separator.
      val cutOpt = GlobalCutStar.find(g, g.n, Variant.Basic) // any cut (k = n always admits one unless complete)
      cutOpt.foreach { cut =>
        val parts = Overlap.partition(g, cut)
        assert(parts.length >= 2)
        val cutIds = cut.map(g.ids(_)).toSet
        // Union of parts covers all vertices.
        assert(parts.flatMap(_.ids).toSet == g.ids.toSet)
        // Pairwise intersections are exactly the cut.
        for (i <- parts.indices; j <- i + 1 until parts.length) {
          assert(parts(i).ids.toSet.intersect(parts(j).ids.toSet) == cutIds)
        }
        // Every edge of g appears in some part, except edges between
        // different sides (impossible: sides are separated by the cut).
        val partEdges = parts.flatMap(_.edgeList).toSet
        g.edgeList.foreach { e => assert(partEdges.contains(e), s"lost edge $e") }
      }
    }
  }
}

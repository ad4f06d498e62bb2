package repro.core

import repro.SparkSpec
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}

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
    val g = AdjGraph.fromEdges(GraphGen.erdosRenyi(6, 1.0, 1)) // clique
    intercept[IllegalArgumentException] {
      Overlap.partition(g, Array(0))
    }
  }

  for (seed <- 1 to 10) {
    test(s"partition invariants on random graphs (seed=$seed)") {
      val g = AdjGraph.fromEdges(
        GraphGen.erdosRenyi(12, 0.25, seed) ++ (0 until 11).map(i => (i.toLong, (i + 1).toLong)))
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

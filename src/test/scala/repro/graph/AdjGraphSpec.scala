package repro.graph

import repro.SparkSpec
import scala.util.Random

class AdjGraphSpec extends SparkSpec {

  test("empty graph") {
    val g = AdjGraph.empty
    assert(g.n == 0)
    assert(g.m == 0)
  }

  test("basic construction: triangle") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    assert(g.n == 3)
    assert(g.m == 3)
    assert((0 until 3).forall(v => g.degree(v) == 2))
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 2) && g.hasEdge(0, 2))
  }

  test("self-loops dropped, duplicates merged, direction ignored") {
    val g = AdjGraph.fromEdges(Seq((5L, 5L), (1L, 2L), (2L, 1L), (1L, 2L), (2L, 3L)))
    assert(g.m == 2)
    // The (5,5) loop is dropped entirely, so vertex 5 never materializes.
    assert(g.ids.toSet == Set(1L, 2L, 3L))
  }

  test("extraIds adds isolated vertices") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L)), extraIds = Seq(9L, 1L))
    assert(g.n == 3)
    assert(g.ids.toSet == Set(1L, 2L, 9L))
    assert(g.degree(g.ids.indexOf(9L)) == 0)
  }

  test("ids are sorted and adjacency sorted") {
    val g = AdjGraph.fromEdges(Seq((30L, 10L), (10L, 20L), (30L, 20L), (40L, 10L)))
    assert(g.ids.toSeq == Seq(10L, 20L, 30L, 40L))
    (0 until g.n).foreach { v =>
      val nb = g.adj.slice(g.offsets(v), g.offsets(v + 1)).toVector
      assert(nb == nb.sorted)
      assert(nb.distinct == nb)
    }
  }

  test("induced subgraph keeps original ids and edges") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 1L), (1L, 3L)))
    val sub = g.induced(Array(0, 1, 2)) // ids 1,2,3
    assert(sub.ids.toSet == Set(1L, 2L, 3L))
    assert(sub.m == 3) // (1,2),(2,3),(1,3)
  }

  test("induced on unsorted keep array") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    val sub = g.induced(Array(3, 1, 0)) // ids 4,2,1
    assert(sub.ids.toSet == Set(1L, 2L, 4L))
    assert(sub.m == 1) // only (1,2)
  }

  test("edgeList round-trips") {
    val rnd = new Random(42)
    val edges = (0 until 60).map(_ => (rnd.nextInt(20).toLong, rnd.nextInt(20).toLong))
    val g = AdjGraph.fromEdges(edges)
    val g2 = AdjGraph.fromEdges(g.edgeList)
    assert(g2.n == g.n && g2.m == g.m)
    assert(g2.edgeList.toSet == g.edgeList.toSet)
  }

  test("hasEdge matches neighbor lists on random graphs") {
    for (seed <- 1 to 5) {
      val rnd = new Random(seed)
      val edges = (0 until 80).map(_ => (rnd.nextInt(15).toLong, rnd.nextInt(15).toLong))
      val g = AdjGraph.fromEdges(edges)
      for (u <- 0 until g.n; v <- 0 until g.n) {
        assert(g.hasEdge(u, v) == g.adj.slice(g.offsets(u), g.offsets(u + 1)).contains(v), s"seed=$seed u=$u v=$v")
        assert(g.hasEdge(u, v) == g.hasEdge(v, u))
      }
    }
  }

  test("degree sums to 2m") {
    for (seed <- 1 to 10) {
      val rnd = new Random(seed)
      val edges = (0 until 100).map(_ => (rnd.nextInt(25).toLong, rnd.nextInt(25).toLong))
      val g = AdjGraph.fromEdges(edges)
      assert((0 until g.n).map(g.degree).sum == 2 * g.m)
    }
  }

  test("minDegreeVertex / maxDegree") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L)))
    assert(g.ids(g.minDegreeVertex) == 4L)
    assert(g.maxDegree == 3)
    assert(g.minDegree == 1)
  }

  test("fromLocalEdges uses positional ids") {
    val g = AdjGraph.fromLocalEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    assert(g.n == 4)
    assert(g.ids.toSeq == Seq(0L, 1L, 2L, 3L))
  }
}

package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.gen.GraphGen
import repro.graph.AdjGraph
import scala.util.Random

class VertexConnectivitySpec extends SparkSpec {

  test("κ of a clique is n-1") {
    for (n <- 3 to 7)
      assert(VertexConnectivity.kappa(AdjGraph.fromEdges(TestGraphs.erdosRenyi(n, 1.0, 1))) == n - 1)
  }

  test("κ of a cycle is 2, of a path is 1") {
    val cycle = AdjGraph.fromEdges((0 until 7).map(i => (i.toLong, ((i + 1) % 7).toLong)))
    assert(VertexConnectivity.kappa(cycle) == 2)
    val path = AdjGraph.fromEdges((0 until 6).map(i => (i.toLong, (i + 1).toLong)))
    assert(VertexConnectivity.kappa(path) == 1)
  }

  test("κ of a disconnected or trivial graph is 0") {
    assert(VertexConnectivity.kappa(AdjGraph.fromEdges(Seq((0L, 1L), (2L, 3L)))) == 0)
    assert(VertexConnectivity.kappa(AdjGraph.fromEdges(Nil, extraIds = Seq(1L))) == 0)
  }

  test("κ of two cliques sharing one vertex is 1") {
    val a = GraphGen.erdosRenyi((0L to 4L), 1.0, new Random(1))
    val b = GraphGen.erdosRenyi((4L to 8L), 1.0, new Random(2))
    assert(VertexConnectivity.kappa(AdjGraph.fromEdges(a ++ b)) == 1)
  }

  for (seed <- 1 to 25) {
    test(s"κ matches brute force on random graphs (seed=$seed)") {
      val n = 5 + seed % 5
      val p = 0.25 + 0.1 * (seed % 6)
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(n, p, seed) ++ (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))
      assert(VertexConnectivity.kappa(g) == BruteForce.kappaNaive(g), s"n=$n p=$p")
    }
  }

  for (seed <- 1 to 10) {
    test(s"isKConnected matches Definition 2 (seed=$seed)") {
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(7, 0.5, seed) ++ (0 until 6).map(i => (i.toLong, (i + 1).toLong)))
      val kappa = BruteForce.kappaNaive(g)
      for (k <- 1 to 8)
        assert(VertexConnectivity.isKConnected(g, k) == (g.n > k && kappa >= k), s"k=$k kappa=$kappa")
    }
  }
}

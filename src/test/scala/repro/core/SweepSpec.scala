package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.AdjGraph
import repro.graph.GraphOps

/** Direct validation of the sweep theory (Section 5): strong side-vertices,
  * side-vertex safety, and the deposit thresholds.
  */
class SweepSpec extends SparkSpec {

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph =
    AdjGraph.fromEdges(
      TestGraphs.erdosRenyi(n, p, seed) ++ (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))

  /** Eager strong side-vertex mask over all vertices. */
  private def strongSideVertices(g: AdjGraph, k: Int): Array[Boolean] = {
    val ssv = new StrongSideVertex(g, k)
    Array.tabulate(g.n)(ssv(_))
  }

  /** All vertex cuts of size < k (brute force, tiny graphs). */
  private def smallCuts(g: AdjGraph, k: Int): Seq[Set[Int]] =
    (1 until k).flatMap { size =>
      (0 until g.n).combinations(size).filter { s =>
        val keep = (0 until g.n).filter(v => !s.contains(v)).toArray
        keep.nonEmpty && GraphOps.connectedComponents(g.induced(keep)).length >= 2
      }.map(_.toSet)
    }

  test("in a clique every vertex is a strong side-vertex (small k)") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(6, 1.0, 1))
    val ssv = strongSideVertices(g, 3)
    assert(ssv.forall(identity))
  }

  test("the center of a star is not a strong side-vertex for k >= 2") {
    val star = AdjGraph.fromEdges((1 to 5).map(i => (0L, i.toLong)))
    val center = star.ids.indexOf(0L)
    assert(!strongSideVertices(star, 2)(center))
  }

  for (seed <- 1 to 15; k <- Seq(2, 3)) {
    test(s"Theorem 8 soundness: no strong side-vertex sits in a cut of size < k (seed=$seed, k=$k)") {
      val g = randomConnected(8 + seed % 3, 0.4, seed * 19)
      val ssv = strongSideVertices(g, k)
      val cuts = smallCuts(g, k)
      for (cut <- cuts; v <- cut) {
        assert(!ssv(v), s"strong side-vertex ${g.ids(v)} inside cut ${cut.map(g.ids(_))}")
      }
    }
  }

  test("lazy evaluation order does not change the verdicts") {
    for (seed <- 1 to 5) {
      val g = randomConnected(12, 0.5, seed * 3)
      val eager = strongSideVertices(g, 3)
      val lazySsv = new StrongSideVertex(g, 3)
      val order = new scala.util.Random(seed).shuffle((0 until g.n).toVector)
      order.foreach(v => assert(lazySsv(v) == eager(v)))
      // Re-querying is stable.
      order.foreach(v => assert(lazySsv(v) == eager(v)))
    }
  }

  for (seed <- 1 to 10) {
    test(s"Lemma 17 (vertex deposit threshold) holds on random graphs (seed=$seed)") {
      val k = 3
      val g = randomConnected(9, 0.45, seed * 23)
      val fn = new FlowNetwork(g)
      val u = 0
      // Vertices v with >= k neighbors w, each locally k-connected to u,
      // must themselves be locally k-connected to u.
      val connectedToU = (0 until g.n).map { w =>
        w == u || fn.locCut(u, w, k).fold(k)(_.length) >= k
      }
      for (v <- 0 until g.n if v != u) {
        val witnesses = g.adj.slice(g.offsets(v), g.offsets(v + 1)).count(connectedToU)
        if (witnesses >= k) {
          assert(fn.locCut(u, v, k).fold(k)(_.length) >= k,
            s"deposit rule would have swept $v incorrectly")
        }
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"Lemma 11 (side-vertex transitivity) holds on random graphs (seed=$seed)") {
      val k = 3
      val g = randomConnected(9, 0.5, seed * 41)
      val fn = new FlowNetwork(g)
      val ssv = strongSideVertices(g, k)
      def conn(a: Int, b: Int) =
        a == b || fn.locCut(a, b, k).fold(k)(_.length) >= k
      for (b <- 0 until g.n if ssv(b); a <- 0 until g.n; c <- 0 until g.n) {
        if (conn(a, b) && conn(b, c)) assert(conn(a, c), s"a=$a b=$b c=$c")
      }
    }
  }
}

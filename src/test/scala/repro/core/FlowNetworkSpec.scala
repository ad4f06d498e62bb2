package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable
import scala.util.Random

class FlowNetworkSpec extends SparkSpec {

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph = {
    // ER + a spanning path to guarantee connectivity.
    val er = TestGraphs.erdosRenyi(n, p, seed)
    val path = (0 until n - 1).map(i => (i.toLong, (i + 1).toLong))
    AdjGraph.fromEdges(er ++ path)
  }

  test("flow equals local connectivity on a 4-cycle") {
    // 0-1-2-3-0: κ(0,2) = 2 (cut {1,3})
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L)))
    val fn = new FlowNetwork(g)
    assert(fn.maxFlowUpTo(0, 2, 10) == 2)
    val f = fn.maxFlowUpTo(0, 2, 10)
    assert(f == 2)
    val cut = fn.minCutVertices()
    assert(cut.toSet == Set(1, 3))
  }

  test("early termination caps the flow value") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(8, 1.0, 1)) // K8
    val fn = new FlowNetwork(g)
    assert(fn.maxFlowUpTo(0, 1, 3) == 3) // true κ is larger; cap respected
  }

  for (seed <- 1 to 20) {
    test(s"max flow equals naive κ(u,v) on random graphs (seed=$seed)") {
      val n = 6 + seed % 5
      val g = randomConnected(n, 0.35, seed)
      val fn = new FlowNetwork(g)
      val rnd = new Random(seed + 1000)
      for (_ <- 0 until 6) {
        val u = rnd.nextInt(g.n)
        val v = rnd.nextInt(g.n)
        if (u != v && !g.hasEdge(u, v)) {
          val naive = BruteForce.localConnectivityNaive(g, u, v)
          val flow = fn.maxFlowUpTo(u, v, g.n)
          assert(flow == naive, s"u=$u v=$v flow=$flow naive=$naive")
        }
      }
    }
  }

  for (seed <- 1 to 20) {
    test(s"min cut is a valid minimum u-v separator (seed=$seed)") {
      val n = 7 + seed % 6
      val g = randomConnected(n, 0.3, seed * 31)
      val fn = new FlowNetwork(g)
      val rnd = new Random(seed)
      for (_ <- 0 until 6) {
        val u = rnd.nextInt(g.n)
        val v = rnd.nextInt(g.n)
        if (u != v && !g.hasEdge(u, v)) {
          val flow = fn.maxFlowUpTo(u, v, g.n) // uncapped: true max flow
          val cut = fn.minCutVertices()
          assert(cut.length == flow, s"cut size ${cut.length} != flow $flow")
          assert(!cut.contains(u) && !cut.contains(v))
          // Removing the cut must separate u from v.
          val rest = (0 until g.n).filter(w => !cut.contains(w)).toArray
          val sub = g.induced(rest)
          val ui = rest.indexOf(u); val vi = rest.indexOf(v)
          assert(GraphOps.bfsDistances(sub, ui)(vi) == -1, "cut does not separate")
        }
      }
    }
  }

  /** Dense graphs: n = 8..12, edge probability 0.6..0.7, plus a spanning path. */
  private def denseGraphs: Seq[(Int, AdjGraph)] =
    (1 to 12).map(seed => seed -> randomConnected(8 + seed % 5, 0.6 + 0.05 * (seed % 3), seed * 13))

  private def nonAdjacentPairs(g: AdjGraph): Seq[(Int, Int)] =
    for (u <- 0 until g.n; v <- u + 1 until g.n if !g.hasEdge(u, v)) yield (u, v)

  private def commonNeighbours(g: AdjGraph, u: Int, v: Int): Int = {
    def nb(x: Int) = g.adj.slice(g.offsets(x), g.offsets(x + 1)).toSet
    nb(u).intersect(nb(v)).size
  }

  /** Plain Edmonds–Karp on the split graph, with no seed and a fresh
    * capacity matrix: (max flow, vertices whose split arc crosses the cut of
    * the residual-reachable set).
    */
  private def unseededFlowAndCut(g: AdjGraph, u: Int, v: Int): (Int, Array[Int]) = {
    val nodes = 2 * g.n
    val cap = Array.ofDim[Int](nodes, nodes)
    for (w <- 0 until g.n) {
      cap(2 * w)(2 * w + 1) = 1
      g.foreachNeighbor(w)(x => cap(2 * w + 1)(2 * x) = g.n)
    }
    val s = 2 * u + 1
    val t = 2 * v
    def reach(): Array[Int] = { // BFS parents; -1 unreached
      val parent = Array.fill(nodes)(-1)
      parent(s) = s
      val queue = mutable.Queue(s)
      while (queue.nonEmpty) {
        val x = queue.dequeue()
        for (y <- 0 until nodes if parent(y) == -1 && cap(x)(y) > 0) {
          parent(y) = x; queue.enqueue(y)
        }
      }
      parent
    }
    var flow = 0
    var parent = reach()
    while (parent(t) != -1) {
      var y = t
      while (y != s) { val x = parent(y); cap(x)(y) -= 1; cap(y)(x) += 1; y = x }
      flow += 1
      parent = reach()
    }
    val cut = (0 until g.n).filter(w => parent(2 * w) != -1 && parent(2 * w + 1) == -1).toArray
    (flow, cut)
  }

  for ((seed, g) <- denseGraphs) {
    test(s"seeded max flow equals naive κ(u,v) on dense graphs, every limit (seed=$seed)") {
      val fn = new FlowNetwork(g)
      var seedReachesLimit = false
      var bfsFinishes = false
      for ((u, v) <- nonAdjacentPairs(g)) {
        val naive = BruteForce.localConnectivityNaive(g, u, v)
        val common = commonNeighbours(g, u, v)
        for (limit <- 1 to g.n) {
          if (common >= limit) seedReachesLimit = true else bfsFinishes = true
          val flow = fn.maxFlowUpTo(u, v, limit)
          assert(flow == math.min(naive, limit), s"u=$u v=$v limit=$limit common=$common naive=$naive")
        }
      }
      assert(seedReachesLimit && bfsFinishes, "both seed outcomes must be exercised")
    }
  }

  for ((seed, g) <- denseGraphs :+ (13 -> randomConnected(12, 0.3, 77))) {
    test(s"a network reused across pairs matches a fresh network per pair (seed=$seed)") {
      val reused = new FlowNetwork(g)
      for (((u, v), idx) <- nonAdjacentPairs(g).zipWithIndex) {
        // Vary the limit so some computations stop early and leave a
        // partial flow behind for the next one to clear.
        val limit = 1 + idx % g.n
        val fresh = new FlowNetwork(g)
        val flow = reused.maxFlowUpTo(u, v, limit)
        assert(flow == fresh.maxFlowUpTo(u, v, limit), s"u=$u v=$v limit=$limit")
        if (flow < limit) assert(reused.minCutVertices().sameElements(fresh.minCutVertices()))
        val full = reused.maxFlowUpTo(u, v, g.n)
        assert(full == new FlowNetwork(g).maxFlowUpTo(u, v, g.n), s"u=$u v=$v uncapped")
      }
    }
  }

  for ((seed, g) <- denseGraphs ++ (1 to 8).map(s => (100 + s) -> randomConnected(9 + s % 4, 0.3, s * 17))) {
    test(s"seeded min cut equals the unseeded Edmonds–Karp cut (seed=$seed)") {
      val fn = new FlowNetwork(g)
      for ((u, v) <- nonAdjacentPairs(g)) {
        val (plainFlow, plainCut) = unseededFlowAndCut(g, u, v)
        assert(fn.maxFlowUpTo(u, v, g.n) == plainFlow, s"u=$u v=$v")
        assert(fn.minCutVertices().sameElements(plainCut), s"u=$u v=$v")
      }
    }
  }

  test("locCut returns None for adjacent vertices and for the same vertex") {
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val fn = new FlowNetwork(g)
    assert(fn.locCut(0, 1, 5).isEmpty)
    assert(fn.locCut(2, 2, 5).isEmpty)
  }

  for (seed <- 1 to 15) {
    test(s"locCut agrees with naive κ threshold (seed=$seed)") {
      val g = randomConnected(8, 0.3, seed * 7)
      val fn = new FlowNetwork(g)
      for (u <- 0 until g.n; v <- u + 1 until g.n if !g.hasEdge(u, v); k <- 1 to 4) {
        val naive = BruteForce.localConnectivityNaive(g, u, v)
        val cut = fn.locCut(u, v, k)
        if (naive >= k) assert(cut.isEmpty, s"u=$u v=$v k=$k naive=$naive")
        else {
          assert(cut.isDefined)
          assert(cut.get.length == naive) // the minimum u-v cut
        }
      }
    }
  }

  /** The flow `prev`/`split` hold for non-adjacent u, v: every `prev` is an
    * edge of `g`; every other vertex carries one unit iff its split arc
    * does, and sends at most one on; a unit with no successor ends at a
    * neighbour of `v`; `value` units leave `u_out` and enter `v_in`; nothing
    * enters `u_in` or leaves `v_out`.
    */
  private def assertFeasible(g: AdjGraph, fn: FlowNetwork, u: Int, v: Int, value: Int): Unit = {
    assert(!g.hasEdge(u, v))
    val sent = new Array[Int](g.n) // units leaving x_out for some w_in, w != v
    for (w <- 0 until g.n if fn.prev(w) >= 0) {
      assert(g.hasEdge(fn.prev(w), w), s"prev($w) = ${fn.prev(w)} is not a neighbour")
      sent(fn.prev(w)) += 1
    }
    var intoV = 0
    for (x <- 0 until g.n if x != u && x != v) {
      assert((fn.prev(x) >= 0) == fn.split(x), s"x=$x prev=${fn.prev(x)} split=${fn.split(x)}")
      assert(sent(x) <= (if (fn.split(x)) 1 else 0), s"x=$x sends ${sent(x)}")
      if (fn.split(x) && sent(x) == 0) {
        assert(g.hasEdge(x, v), s"the unit through x=$x ends away from v=$v")
        intoV += 1
      }
    }
    assert(sent(u) == value && intoV == value, s"u=$u sends ${sent(u)}, v=$v receives $intoV, value $value")
    assert(fn.prev(u) < 0 && !fn.split(u), s"source u=$u")
    assert(fn.prev(v) < 0 && !fn.split(v) && sent(v) == 0, s"sink v=$v")
  }

  test("u and v in different components: flow 0 and an empty cut") {
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L), (3L, 4L), (4L, 5L)))
    val fn = new FlowNetwork(g)
    for (u <- 0 to 2; v <- 3 to 5) {
      assert(BruteForce.localConnectivityNaive(g, u, v) == 0)
      assert(fn.maxFlowUpTo(u, v, 3) == 0)
      assert(fn.minCutVertices().isEmpty)
      assert(fn.locCut(v, u, 1).exists(_.isEmpty))
    }
  }

  test("a source of degree 0") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L)), extraIds = Seq(0L))
    val fn = new FlowNetwork(g)
    for (v <- 1 to 3) {
      assert(fn.maxFlowUpTo(0, v, 2) == BruteForce.localConnectivityNaive(g, 0, v))
      assert(fn.minCutVertices().isEmpty)
      assert(fn.locCut(0, v, 1).exists(_.isEmpty))
    }
  }

  test("a graph with isolated vertices matches naive κ(u,v) on every pair") {
    val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(8, 0.5, 5), extraIds = Seq(8L, 9L, 10L))
    val fn = new FlowNetwork(g)
    for ((u, v) <- nonAdjacentPairs(g); (a, b) <- Seq((u, v), (v, u))) {
      val naive = BruteForce.localConnectivityNaive(g, a, b)
      assert(fn.maxFlowUpTo(a, b, g.n) == naive, s"u=$a v=$b")
      assert(fn.minCutVertices().length == naive, s"u=$a v=$b")
      assertFeasible(g, fn, a, b, naive)
    }
  }

  test("K_n: locCut is always None") {
    for (n <- 2 to 7) {
      val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(n, 1.0, 1))
      val fn = new FlowNetwork(g)
      for (u <- 0 until n; v <- 0 until n; k <- 1 to n + 1) assert(fn.locCut(u, v, k).isEmpty, s"n=$n u=$u v=$v k=$k")
    }
  }

  test("a maximum flow that needs a reverse residual arc") {
    // u=0 reaches v=5 through a=1 or b=2, then c=3 or d=4; edges a-c, a-d,
    // b-c. The first shortest path u-a-c-v leaves b only the route
    // b-c, back along a-c, a-d-v.
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (0L, 2L), (1L, 3L), (1L, 4L), (2L, 3L), (3L, 5L), (4L, 5L)))
    val fn = new FlowNetwork(g)
    assert(BruteForce.localConnectivityNaive(g, 0, 5) == 2)
    assert(fn.maxFlowUpTo(0, 5, 3) == 2)
    assertFeasible(g, fn, 0, 5, 2)
    assert(fn.minCutVertices().toSeq == Seq(1, 2))
  }

  test("a maximum flow whose augmenting path cancels a unit through a whole vertex") {
    // u=0 reaches v=9 through p=1 or q=2. The unique shortest path is
    // u-p-a-b-v with a=3, b=4. The second unit's only route is q, q2=5, b,
    // then back through the whole of a to p, and r=6, s=7, t=8 into v; a
    // ends up carrying nothing.
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (0L, 2L), (1L, 3L), (3L, 4L), (4L, 9L), (2L, 5L), (5L, 4L),
      (1L, 6L), (6L, 7L), (7L, 8L), (8L, 9L)))
    val fn = new FlowNetwork(g)
    assert(BruteForce.localConnectivityNaive(g, 0, 9) == 2)
    assert(fn.maxFlowUpTo(0, 9, 3) == 2)
    assertFeasible(g, fn, 0, 9, 2)
    assert(!fn.split(3) && fn.prev(3) < 0)
    assert(fn.minCutVertices().toSeq == Seq(1, 2))
  }

  for ((seed, g) <- denseGraphs.take(4)) {
    test(s"maxFlowUpTo leaves a feasible flow of its value, every limit (seed=$seed)") {
      val fn = new FlowNetwork(g)
      for ((u, v) <- nonAdjacentPairs(g); limit <- 1 to g.n) assertFeasible(g, fn, u, v, fn.maxFlowUpTo(u, v, limit))
    }
  }
}

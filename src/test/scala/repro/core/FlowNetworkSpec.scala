package repro.core

import repro.SparkSpec
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable
import scala.util.Random

class FlowNetworkSpec extends SparkSpec {

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph = {
    // ER + a spanning path to guarantee connectivity.
    val rnd = new Random(seed)
    val er = GraphGen.erdosRenyi(n, p, seed)
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
    val cut = fn.minCutVertices(0)
    assert(cut.toSet == Set(1, 3))
  }

  test("early termination caps the flow value") {
    val g = AdjGraph.fromEdges(GraphGen.erdosRenyi(8, 1.0, 1)) // K8
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
          val cut = fn.minCutVertices(u)
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
        if (flow < limit) assert(reused.minCutVertices(u).sameElements(fresh.minCutVertices(u)))
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
        assert(fn.minCutVertices(u).sameElements(plainCut), s"u=$u v=$v")
      }
    }
  }

  test("locCut returns None for adjacent vertices and for the same vertex") {
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val fn = new FlowNetwork(g)
    assert(LocalConnectivity.locCut(fn, g, 0, 1, 5).isEmpty)
    assert(LocalConnectivity.locCut(fn, g, 2, 2, 5).isEmpty)
  }

  for (seed <- 1 to 15) {
    test(s"locCut agrees with naive κ threshold (seed=$seed)") {
      val g = randomConnected(8, 0.3, seed * 7)
      val fn = new FlowNetwork(g)
      for (u <- 0 until g.n; v <- u + 1 until g.n if !g.hasEdge(u, v); k <- 1 to 4) {
        val naive = BruteForce.localConnectivityNaive(g, u, v)
        val cut = LocalConnectivity.locCut(fn, g, u, v, k)
        if (naive >= k) assert(cut.isEmpty, s"u=$u v=$v k=$k naive=$naive")
        else {
          assert(cut.isDefined)
          assert(cut.get.length == naive) // the minimum u-v cut
        }
      }
    }
  }
}

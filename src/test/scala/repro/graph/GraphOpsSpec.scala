package repro.graph

import repro.{SparkSpec, TestGraphs}
import scala.collection.mutable
import scala.util.Random

class GraphOpsSpec extends SparkSpec {

  private def randomGraph(n: Int, p: Double, seed: Long): AdjGraph =
    AdjGraph.fromEdges(TestGraphs.erdosRenyi(n, p, seed))

  private def neighbourSet(g: AdjGraph, v: Int): Set[Int] =
    g.adj.slice(g.offsets(v), g.offsets(v + 1)).toSet

  // --- k-core ---

  /** Reference: fixpoint by repeated full filtering. */
  private def kCoreNaive(g: AdjGraph, k: Int): Set[Long] = {
    var ids = g.ids.toSet
    var changed = true
    while (changed) {
      val sub = g.induced((0 until g.n).filter(v => ids.contains(g.ids(v))).toArray)
      val weak = (0 until sub.n).filter(v => sub.degree(v) < k).map(sub.ids(_)).toSet
      changed = weak.nonEmpty
      ids = ids -- weak
    }
    ids
  }

  for (seed <- 1 to 8; k <- Seq(2, 3, 4)) {
    test(s"kCore matches naive fixpoint (seed=$seed, k=$k)") {
      val g = randomGraph(18, 0.25, seed)
      val core = GraphOps.kCore(g, k)
      assert(core.ids.toSet == kCoreNaive(g, k))
      (0 until core.n).foreach(v => assert(core.degree(v) >= k))
    }
  }

  test("kCore of a clique is the clique") {
    val g = randomGraph(6, 1.0, 1)
    assert(GraphOps.kCore(g, 5).n == 6)
    assert(GraphOps.kCore(g, 6).n == 0)
  }

  test("kCore strips a pendant path") {
    // triangle 1-2-3 with path 3-4-5
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L), (1L, 3L), (3L, 4L), (4L, 5L)))
    val core = GraphOps.kCore(g, 2)
    assert(core.ids.toSet == Set(1L, 2L, 3L))
  }

  // --- connected components ---

  test("connectedComponents partitions the vertex set") {
    for (seed <- 1 to 6) {
      val g = randomGraph(30, 0.05, seed)
      val comps = GraphOps.connectedComponents(g)
      assert(comps.map(_.length).sum == g.n)
      assert(comps.flatten.toSet == (0 until g.n).toSet)
      comps.foreach { comp =>
        val sub = g.induced(comp)
        assert(GraphOps.isConnected(sub))
      }
    }
  }

  test("components are maximal: no edges between components") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (3L, 4L), (4L, 5L), (7L, 8L)))
    val comps = GraphOps.connectedComponents(g)
    assert(comps.length == 3)
    val byVertex = comps.zipWithIndex.flatMap { case (c, i) => c.map(_ -> i) }.toMap
    for (u <- 0 until g.n) g.foreachNeighbor(u)(v => assert(byVertex(u) == byVertex(v)))
  }

  /** Reference: components by BFS with a boxed queue, in order of their
    * smallest index, each in BFS order from it.
    */
  private def referenceComponents(g: AdjGraph): Vector[Array[Int]] = {
    val seen = new Array[Boolean](g.n)
    val out = Vector.newBuilder[Array[Int]]
    for (root <- 0 until g.n if !seen(root)) {
      val members = mutable.ArrayBuffer.empty[Int]
      val queue = mutable.Queue(root)
      seen(root) = true
      while (queue.nonEmpty) {
        val u = queue.dequeue()
        members += u
        g.foreachNeighbor(u)(w => if (!seen(w)) { seen(w) = true; queue.enqueue(w) })
      }
      out += members.toArray
    }
    out.result()
  }

  for (seed <- 1 to 12) {
    test(s"connectedComponents with removed vertices equals the components of the rest's copy (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 10 + rnd.nextInt(30)
      // Four ids with no edges: isolated vertices.
      val g = AdjGraph.fromEdges(
        TestGraphs.erdosRenyi(n, 1.0 / n + 0.15 * rnd.nextDouble(), seed), extraIds = n.toLong until n + 4L)
      val isolated = (0 until g.n).filter(g.degree(_) == 0).toArray
      assert(isolated.length >= 4)
      val removedSets = Seq(Array.emptyIntArray, Array.range(0, g.n), isolated, isolated.take(2)) ++
        Seq(0.1, 0.3, 0.6).map(q => rnd.shuffle((0 until g.n).filter(_ => rnd.nextDouble() < q)).toArray)
      for (removed <- removedSets) {
        val kept = (0 until g.n).filterNot(removed.toSet).toArray
        val expected = referenceComponents(g.induced(kept)).map(_.map(kept))
        val got = GraphOps.connectedComponents(g, removed)
        assert(got.map(_.toSeq) == expected.map(_.toSeq), s"removed=${removed.mkString(",")}")
      }
      assert(GraphOps.connectedComponents(g).map(_.toSeq) == referenceComponents(g).map(_.toSeq))
    }
  }

  test("componentSubgraphs preserve total edges") {
    for (seed <- 1 to 6) {
      val g = randomGraph(30, 0.06, seed)
      val subs = GraphOps.componentSubgraphs(g)
      assert(subs.map(_.m).sum == g.m)
    }
  }

  // --- BFS / diameter ---

  test("bfsDistances on a path") {
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L)))
    val d = GraphOps.bfsDistances(g, 0)
    assert(d.toSeq == Seq(0, 1, 2, 3, 4))
    assert(GraphOps.diameter(g) == 4)
  }

  test("diameter of a clique is 1; of a cycle n/2") {
    val clique = randomGraph(7, 1.0, 1)
    assert(GraphOps.diameter(clique) == 1)
    val cycle = AdjGraph.fromEdges((0 until 8).map(i => (i.toLong, ((i + 1) % 8).toLong)))
    assert(GraphOps.diameter(cycle) == 4)
  }

  // --- density / clustering / triangles ---

  test("edgeDensity of a clique is 1") {
    assert(math.abs(GraphOps.edgeDensity(randomGraph(6, 1.0, 1)) - 1.0) < 1e-12)
  }

  test("clusteringCoefficient of a clique is 1, of a star is 0") {
    assert(math.abs(GraphOps.clusteringCoefficient(randomGraph(6, 1.0, 1)) - 1.0) < 1e-12)
    val star = AdjGraph.fromEdges((1 to 5).map(i => (0L, i.toLong)))
    assert(GraphOps.clusteringCoefficient(star) == 0.0)
  }

  test("commonNeighborsAtLeast") {
    // 0 and 1 share neighbors 2,3,4
    val g = AdjGraph.fromEdges(Seq((0L, 2L), (0L, 3L), (0L, 4L), (1L, 2L), (1L, 3L), (1L, 4L)))
    assert(GraphOps.commonNeighborsAtLeast(g, 0, 1, 3))
    assert(!GraphOps.commonNeighborsAtLeast(g, 0, 1, 4))
    assert(GraphOps.commonNeighborsAtLeast(g, 0, 1, 0))
  }

  for (seed <- 1 to 5) {
    test(s"commonNeighborsAtLeast matches set intersection (seed=$seed)") {
      val g = randomGraph(12, 0.5, seed)
      for (u <- 0 until g.n; v <- 0 until g.n if u != v) {
        val exact = neighbourSet(g, u).intersect(neighbourSet(g, v)).size
        for (t <- 0 to 5)
          assert(GraphOps.commonNeighborsAtLeast(g, u, v, t) == (exact >= t))
      }
    }
  }
}

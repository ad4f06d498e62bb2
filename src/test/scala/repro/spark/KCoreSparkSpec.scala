package repro.spark

import repro.TestGraphs.GraphViews
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.gen.Datasets
import repro.graph.{AdjGraph, GraphOps}

class KCoreSparkSpec extends SparkSpec {

  /** `KCoreSpark.prune` keeps exactly what two synchronous peel rounds keep,
    * which holds the exact k-core and has the same k-core as the input.
    */
  private def check(edges: Seq[(Long, Long)], k: Int): Unit = {
    val input = AdjGraph.fromEdges(edges)
    val pruned = TestGraphs.toLocal(KCoreSpark.prune(EdgeOps.toDF(spark, edges), k))
    val (reference, _) = TestGraphs.peelRounds(input, k, rounds = 2)
    // Both are edge lists, so neither holds an isolated vertex.
    assert(pruned.ids.toSet == reference.ids.toSet, s"k=$k vertex sets differ from two local rounds")
    assert(pruned.edgeList.toSet == reference.edgeList.toSet, s"k=$k edge sets differ from two local rounds")
    val localCore = GraphOps.kCore(input, k)
    assert(localCore.ids.toSet.subsetOf(pruned.ids.toSet), s"k=$k the pruned graph misses a core vertex")
    assert(localCore.edgeList.toSet.subsetOf(pruned.edgeList.toSet), s"k=$k the pruned graph misses a core edge")
    val prunedCore = GraphOps.kCore(pruned, k)
    assert(prunedCore.ids.toSet == localCore.ids.toSet, s"k=$k the pruned graph's k-core has other vertices")
    assert(prunedCore.edgeList.toSet == localCore.edgeList.toSet, s"k=$k the pruned graph's k-core has other edges")
  }

  for (seed <- 1 to 5; k <- Seq(2, 3, 4)) {
    test(s"distributed k-core equals local peeling (seed=$seed, k=$k)") {
      check(TestGraphs.erdosRenyi(25, 0.2, seed), k)
    }
  }

  test("k-core of a clique survives; above n-1 it vanishes") {
    val clique = TestGraphs.erdosRenyi(6, 1.0, 1)
    check(clique, 5)
    val df = EdgeOps.toDF(spark, clique)
    assert(TestGraphs.toLocal(KCoreSpark.prune(df, 6)).m == 0)
    check(clique, 6)
  }

  test("k-core strips the power-law background of a dataset substitute") {
    val edges = Datasets.generate(Datasets.byName("DBLP"), scale = 1.0 / 512)
    check(edges, 20)
  }

  test("cascade removal: two rounds peel the four end vertices of a chain") {
    // The 11-vertex chain 0-1-…-10 loses one vertex at each end per round.
    val chain = (0 until 10).map(i => (i.toLong, (i + 1).toLong))
    val pruned = TestGraphs.toLocal(KCoreSpark.prune(EdgeOps.toDF(spark, chain), 2))
    assert(pruned.sortedIds.toSeq == (2L to 8L))
    assert(pruned.edgeList.toSet == (2 until 8).map(i => (i.toLong, (i + 1).toLong)).toSet)
    assert(KVCCSpark.enumerate(EdgeOps.toDF(spark, chain), 2).isEmpty)
  }

  test("first peel iteration matches DuckDB degree filter (Oracle)") {
    val edges = TestGraphs.erdosRenyi(20, 0.25, 9)
    val df = EdgeOps.toDF(spark, edges)
    val k = 3
    // The first round keeps exactly the owned vertices whose degree is >= k.
    val kept = Blocks.fromEdges(df).flatMap { b =>
      b.graph.ids.indices.filter(v => b.owned(v) && b.graph.degree(v) >= k).map(b.graph.ids(_).toString)
    }.collect().toSeq
    import spark.implicits._
    Oracle.assertEquivalent(
      kept.toDF("vertex"),
      s"""SELECT CAST(v AS VARCHAR) AS vertex
         |FROM (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)
         |GROUP BY v HAVING COUNT(*) >= $k""".stripMargin,
      "edges" -> EdgeOps.canonicalize(df))
  }

  test("ids that are negative and beyond the Int range peel like the local kernel") {
    for (seed <- 1 to 3; k <- Seq(2, 3)) check(TestGraphs.farIds(TestGraphs.erdosRenyi(25, 0.2, seed)), k)
  }

  test("duplicates, reversed pairs and self-loops peel like the local kernel") {
    for (seed <- 1 to 3; k <- Seq(2, 3)) check(TestGraphs.messy(TestGraphs.erdosRenyi(25, 0.2, seed)), k)
  }

  test("an empty edge list has an empty k-core") {
    assert(TestGraphs.toLocal(KCoreSpark.prune(EdgeOps.toDF(spark, Nil), 1)).n == 0)
    check(Nil, 1)
  }

  test("an id received twice or a round replayed kills once") {
    // A triangle plus a pendant vertex 3 on vertex 0: at k = 2 the pendant
    // goes and vertex 0 stays, whatever the replay.
    val b = Blocks.fromEdges(EdgeOps.toDF(spark, Seq((0L, 1L), (1L, 2L), (2L, 0L), (0L, 3L))))
      .collect().find(b => b.graph.ids.indices.exists(v => b.owned(v) && b.graph.ids(v) == 0L)).get
    val once = KCoreSpark.peel(b, 2, Array(3L))
    assert(!once.alive(b.graph.ids.indexOf(3L)) && once.alive(b.graph.ids.indexOf(0L)))
    assert(KCoreSpark.peel(b, 2, Array(3L, 3L)).alive.sameElements(once.alive))
    assert(KCoreSpark.peel(once, 2, Array(3L)).alive.sameElements(once.alive))
  }

  test("a vertex with exactly k live neighbours dies in the round after a ghost neighbour's id") {
    // Vertex 0 is owned here; its neighbours 1 and 2 are ghosts, owned elsewhere.
    val b = new Block(AdjGraph.fromEdges(Seq((0L, 1L), (0L, 2L))), Array(true, false, false), Array.fill(3)(true))
    val heard = KCoreSpark.peel(b, 2, Array(1L))
    assert(heard.alive.sameElements(Array(true, false, true)))
    assert(KCoreSpark.peel(heard, 2, Array.emptyLongArray).alive.sameElements(Array(false, false, true)))
  }
}

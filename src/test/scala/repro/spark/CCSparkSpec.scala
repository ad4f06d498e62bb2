package repro.spark

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.{AdjGraph, GraphOps}

class CCSparkSpec extends SparkSpec {

  /** Local reference labeling: vertex -> min vertex id of its component. */
  private def localLabels(edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val g = AdjGraph.fromEdges(edges)
    GraphOps.connectedComponents(g).flatMap { comp =>
      val ids = comp.map(g.ids(_))
      val label = ids.min
      ids.map(_ -> label)
    }.toMap
  }

  private def sparkLabels(edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val labels = ConnectedComponentsSpark.labels(Blocks.fromEdges(EdgeOps.toDF(spark, edges)))
    labels.ids.zip(labels.components).toMap
  }

  private def sparseEdges(seed: Long) =
    TestGraphs.erdosRenyi(40, 0.04, seed) ++ Seq((100L, 101L), (102L, 103L), (102L, 104L))

  for (seed <- 1 to 5) {
    test(s"GraphX CC matches the local kernel (seed=$seed)") {
      val edges = sparseEdges(seed)
      assert(sparkLabels(edges) == localLabels(edges))
    }
  }

  test("CC labels match a DuckDB recursive-CTE oracle") {
    val edges = Seq((1L, 2L), (2L, 3L), (5L, 6L), (7L, 8L), (8L, 9L), (9L, 7L))
    import spark.implicits._
    val labels = sparkLabels(edges).toSeq.map { case (v, c) => (v.toString, c.toString) }
      .toDF("vertex", "component")
    Oracle.assertEquivalent(
      labels,
      """WITH RECURSIVE sym AS (
        |  SELECT CAST(src AS BIGINT) AS a, CAST(dst AS BIGINT) AS b FROM edges
        |  UNION ALL
        |  SELECT CAST(dst AS BIGINT) AS a, CAST(src AS BIGINT) AS b FROM edges
        |), reach(v, r) AS (
        |  SELECT a, a FROM sym
        |  UNION
        |  SELECT sym.a, reach.r FROM sym JOIN reach ON sym.b = reach.v
        |)
        |SELECT CAST(v AS VARCHAR) AS vertex, CAST(MIN(r) AS VARCHAR) AS component
        |FROM reach GROUP BY v""".stripMargin,
      "edges" -> EdgeOps.canonicalize(EdgeOps.toDF(spark, edges)))
  }

  test("single component graph gets one label") {
    val edges = (0 until 20).map(i => (i.toLong, (i + 1).toLong))
    val labels = sparkLabels(edges)
    assert(labels.values.toSet == Set(0L))
    assert(labels.keySet == (0L to 20L).toSet)
  }

  test("ids that are negative and beyond the Int range label like the local kernel") {
    for (seed <- 1 to 3) {
      val edges = TestGraphs.farIds(sparseEdges(seed))
      assert(sparkLabels(edges) == localLabels(edges))
    }
  }

  test("duplicates, reversed pairs and self-loops label like the local kernel") {
    for (seed <- 1 to 3) {
      val edges = TestGraphs.messy(sparseEdges(seed))
      assert(sparkLabels(edges) == localLabels(edges))
    }
  }

  test("an empty edge list has no labels") {
    assert(sparkLabels(Nil).isEmpty)
  }

  test("a component spread over every partition gets one label") {
    // A path visits its vertices in a shuffled order, so consecutive ones
    // mostly have different owners and no partition's forest connects it.
    val parts = spark.sparkContext.defaultParallelism
    val order = new scala.util.Random(5).shuffle((0L until 200L).toVector)
    val edges = order.zip(order.tail)
    assert(order.map(Blocks.owner(_, parts)).toSet == (0 until parts).toSet)
    val labels = sparkLabels(edges)
    assert(labels.values.toSet == Set(0L))
    assert(labels.keySet == order.toSet)
  }
}

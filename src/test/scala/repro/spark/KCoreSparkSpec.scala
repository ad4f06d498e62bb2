package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.gen.{Datasets, GraphGen}
import repro.graph.{AdjGraph, GraphOps}

class KCoreSparkSpec extends SparkSpec {

  private def check(edges: Seq[(Long, Long)], k: Int): Unit = {
    val df = EdgeOps.toDF(spark, edges)
    val sparkCore = TestGraphs.toLocal(KCoreSpark.kCore(df, k))
    val localCore = GraphOps.kCore(AdjGraph.fromEdges(edges), k)
    // The Spark core drops isolated vertices (edge representation); the local
    // k-core has min degree >= k >= 1 so no isolated vertices exist either.
    assert(sparkCore.ids.toSet == localCore.ids.toSet, s"k=$k vertex sets differ")
    assert(sparkCore.edgeList.toSet == localCore.edgeList.toSet, s"k=$k edge sets differ")
  }

  for (seed <- 1 to 5; k <- Seq(2, 3, 4)) {
    test(s"distributed k-core equals local peeling (seed=$seed, k=$k)") {
      check(GraphGen.erdosRenyi(25, 0.2, seed), k)
    }
  }

  test("k-core of a clique survives; above n-1 it vanishes") {
    val clique = GraphGen.erdosRenyi(6, 1.0, 1)
    check(clique, 5)
    val df = EdgeOps.toDF(spark, clique)
    assert(KCoreSpark.kCore(df, 6).count() == 0)
  }

  test("k-core strips the power-law background of a dataset substitute") {
    val edges = Datasets.generate(Datasets.byName("DBLP"), scale = 1.0 / 512)
    check(edges, 20)
  }

  test("cascade removal: a chain peels completely") {
    val chain = (0 until 10).map(i => (i.toLong, (i + 1).toLong))
    val df = EdgeOps.toDF(spark, chain)
    assert(KCoreSpark.kCore(df, 2).count() == 0)
  }

  test("first peel iteration matches DuckDB degree filter (Oracle)") {
    val edges = GraphGen.erdosRenyi(20, 0.25, 9)
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, edges))
    val k = 3
    val survivors = EdgeOps.degrees(canon).where(col("degree") >= k)
      .select(col("vertex").cast("string").as("vertex"))
    Oracle.assertEquivalent(
      survivors,
      s"""SELECT CAST(v AS VARCHAR) AS vertex
         |FROM (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)
         |GROUP BY v HAVING COUNT(*) >= $k""".stripMargin,
      "edges" -> canon)
  }
}

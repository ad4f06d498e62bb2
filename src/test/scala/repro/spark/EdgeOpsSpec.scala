package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}

class EdgeOpsSpec extends SparkSpec {

  private def rawEdges(seed: Long) = {
    // Deliberately messy: duplicates, both orientations, self loops.
    val base = GraphGen.erdosRenyi(20, 0.25, seed)
    base ++ base.map { case (a, b) => (b, a) } ++ Seq((3L, 3L), (5L, 5L))
  }

  test("canonicalize: src<dst, no loops, no duplicates") {
    val df = EdgeOps.toDF(spark, rawEdges(1))
    val canon = EdgeOps.canonicalize(df).collect()
    canon.foreach(r => assert(r.getLong(0) < r.getLong(1)))
    assert(canon.map(r => (r.getLong(0), r.getLong(1))).distinct.length == canon.length)
    assert(canon.length == GraphGen.erdosRenyi(20, 0.25, 1).size)
  }

  test("canonicalize result matches DuckDB (Oracle)") {
    val df = EdgeOps.toDF(spark, rawEdges(2))
    val canon = EdgeOps.canonicalize(df)
      .select(col("src").cast("string").as("src"), col("dst").cast("string").as("dst"))
    Oracle.assertEquivalent(
      canon,
      """SELECT DISTINCT
        |  CAST(LEAST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS VARCHAR) AS src,
        |  CAST(GREATEST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS VARCHAR) AS dst
        |FROM edges WHERE src <> dst""".stripMargin,
      "edges" -> df)
  }

  test("degrees match DuckDB (Oracle)") {
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, rawEdges(3)))
    val deg = EdgeOps.degrees(canon)
      .select(col("vertex").cast("string").as("vertex"), col("degree").cast("string").as("degree"))
    Oracle.assertEquivalent(
      deg,
      """SELECT CAST(v AS VARCHAR) AS vertex, CAST(COUNT(*) AS VARCHAR) AS degree
        |FROM (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)
        |GROUP BY v""".stripMargin,
      "edges" -> canon)
  }

  test("degrees match the local kernel") {
    val edges = GraphGen.erdosRenyi(30, 0.2, 4)
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, edges))
    val sparkDeg = EdgeOps.degrees(canon).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val g = AdjGraph.fromEdges(edges)
    (0 until g.n).foreach { v =>
      assert(sparkDeg(g.ids(v)) == g.degree(v).toLong)
    }
  }

  test("stats: n, m, density, max degree") {
    val edges = GraphGen.erdosRenyi(25, 0.3, 5)
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, edges))
    val s = EdgeOps.stats(canon)
    val g = AdjGraph.fromEdges(edges)
    assert(s.n == g.n)
    assert(s.m == g.m)
    assert(math.abs(s.density - g.m.toDouble / g.n) < 1e-12)
    assert(s.maxDegree == g.maxDegree)
  }

  test("stats match DuckDB aggregates (Oracle)") {
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, rawEdges(6)))
    val s = EdgeOps.stats(canon)
    import spark.implicits._
    val statsDf = Seq((s.n.toString, s.m.toString, s.maxDegree.toString))
      .toDF("n", "m", "maxdeg")
    Oracle.assertEquivalent(
      statsDf,
      """WITH deg AS (
        |  SELECT v, COUNT(*) AS d
        |  FROM (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)
        |  GROUP BY v)
        |SELECT CAST(COUNT(*) AS VARCHAR) AS n,
        |       CAST((SELECT COUNT(*) FROM edges) AS VARCHAR) AS m,
        |       CAST(MAX(d) AS VARCHAR) AS maxdeg
        |FROM deg""".stripMargin,
      "edges" -> canon)
  }

  test("triangleCount matches the local kernel and DuckDB (Oracle)") {
    val edges = GraphGen.erdosRenyi(18, 0.35, 7)
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, edges))
    val local = GraphOps.triangleCount(AdjGraph.fromEdges(edges))
    assert(EdgeOps.triangleCount(canon) == local)
    import spark.implicits._
    val triDf = Seq(local.toString).toDF("triangles")
    Oracle.assertEquivalent(
      triDf,
      """SELECT CAST(COUNT(*) AS VARCHAR) AS triangles
        |FROM edges e1
        |JOIN edges e2 ON e1.dst = e2.src
        |JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst""".stripMargin,
      "edges" -> canon)
  }

  test("toLocal round-trips through a DataFrame") {
    val edges = GraphGen.erdosRenyi(22, 0.25, 8)
    val g = EdgeOps.toLocal(EdgeOps.canonicalize(EdgeOps.toDF(spark, edges)))
    val direct = AdjGraph.fromEdges(edges)
    assert(g.n == direct.n && g.m == direct.m)
    assert(g.edgeList.toSet == direct.edgeList.toSet)
  }

  test("fromAdjGraph inverts toLocal") {
    val edges = GraphGen.erdosRenyi(15, 0.3, 9)
    val g = AdjGraph.fromEdges(edges)
    val df = EdgeOps.toDF(spark, g.edgeList)
    val back = EdgeOps.toLocal(EdgeOps.canonicalize(df))
    assert(back.edgeList.toSet == g.edgeList.toSet)
  }
}

package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core.{KVCCEnumerator, Variant}
import repro.gen.{Datasets, GraphGen}
import repro.graph.{AdjGraph, GraphOps}
import scala.util.Random

class KVCCSparkSpec extends SparkSpec {

  private def localReference(edges: Seq[(Long, Long)], k: Int): Vector[Vector[Long]] =
    TestGraphs.canonical(KVCCEnumerator.enumerate(AdjGraph.fromEdges(edges), k, Variant.Star))

  private def plantedEdges(seed: Long, blocks: Int, k: Int): Vector[(Long, Long)] = {
    val rnd = new Random(seed)
    val specs = Vector.fill(blocks)(
      GraphGen.BlockSpec(k + 4 + rnd.nextInt(4), 0.85, overlap = 1 + rnd.nextInt(k - 1)))
    GraphGen.plantedBlocks(specs, rnd).edges
  }

  for (seed <- 1 to 4) {
    test(s"distributed pipeline equals local enumeration on planted graphs (seed=$seed)") {
      val k = 4
      val edges = plantedEdges(seed, blocks = 4, k = k)
      val df = EdgeOps.toDF(spark, edges)
      val got = KVCCSpark.enumerate(df, k, Variant.Star)
      assert(got == localReference(edges, k))
    }
  }

  test("distributed pipeline handles multiple post-core components") {
    val k = 3
    // Two disconnected planted clusters with disjoint id ranges.
    val a = plantedEdges(7, blocks = 2, k = k)
    val shift = a.flatMap(e => Seq(e._1, e._2)).max + 100
    val b = plantedEdges(8, blocks = 2, k = k).map { case (x, y) => (x + shift, y + shift) }
    val edges = a ++ b
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got == localReference(edges, k))
    assert(got.nonEmpty)
  }

  test("empty result when k exceeds every block's connectivity") {
    val edges = plantedEdges(13, blocks = 2, k = 3)
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), 30, Variant.Star)
    assert(got.isEmpty)
  }

  test("dataset substitute end-to-end at tiny scale") {
    val edges = Datasets.generate(Datasets.byName("Stanford"), scale = 1.0 / 1024)
    val k = 20
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got == localReference(edges, k))
    // Structural sanity on whatever was found.
    got.foreach(v => assert(v.length > k))
    assert(got == got.sorted(KVCCEnumerator.canonicalOrder))
    for (i <- got.indices; j <- i + 1 until got.length)
      assert(got(i).toSet.intersect(got(j).toSet).size < k)
    // All variants agree through the distributed path too.
    val basic = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Basic)
    assert(basic == got)
  }

  test("ids that are negative and beyond the Int range give the local kernel's k-VCCs") {
    val k = 4
    val edges = TestGraphs.farIds(plantedEdges(3, blocks = 4, k = k))
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got.nonEmpty)
    assert(got == localReference(edges, k))
  }

  test("duplicates, reversed pairs and self-loops give the local kernel's k-VCCs") {
    val k = 4
    val edges = TestGraphs.messy(plantedEdges(2, blocks = 4, k = k))
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got.nonEmpty)
    assert(got == localReference(edges, k))
  }

  test("an empty edge list and an empty k-core give no k-VCCs") {
    assert(KVCCSpark.enumerate(EdgeOps.toDF(spark, Nil), 2, Variant.Star).isEmpty)
    val chain = (0 until 30).map(i => (i.toLong, (i + 1).toLong))
    assert(KVCCSpark.enumerate(EdgeOps.toDF(spark, chain), 2, Variant.Star).isEmpty)
  }

  test("a component spread over every partition is one k-VCC") {
    val clique = TestGraphs.erdosRenyi(30, 1.0, 1)
    val parts = spark.sparkContext.defaultParallelism
    assert((0L until 30L).map(Blocks.owner(_, parts)).toSet == (0 until parts).toSet)
    assert(KVCCSpark.enumerate(EdgeOps.toDF(spark, clique), 5, Variant.Star) == Vector((0L until 30L).toVector))
  }

  test("two k-VCCs joined by a bridge that peels in five rounds share one pruned component") {
    val k = 4
    // Two cliques of k + 3 vertices, 0..6 and 100..106. A chain 50-51-52-53
    // hangs on the first, each link with k − 2 edges into it, and vertex 60
    // joins 53 to both cliques. Vertex 50 starts with k − 1 neighbours, and
    // each removal leaves the next vertex with k − 1: rounds 1..5 remove 50,
    // 51, 52, 53 and 60, so after two rounds 60 still joins the cliques.
    val a = TestGraphs.erdosRenyi(k + 3, 1.0, 1)
    val b = TestGraphs.erdosRenyi(k + 3, 1.0, 1, offset = 100)
    val chain = 50L to 53L
    val hang = for ((c, i) <- chain.zipWithIndex; j <- 0 until k - 2) yield (c, ((i + j) % (k + 3)).toLong)
    val bridge = chain.zip(chain.tail) ++ Seq((53L, 60L), (60L, 0L), (60L, 100L), (60L, 101L))
    val edges = a ++ b ++ hang ++ bridge
    val input = AdjGraph.fromEdges(edges)
    val (core, exactRounds) = TestGraphs.peelRounds(input, k)
    assert(exactRounds == 5)
    assert(GraphOps.connectedComponents(core).length == 2)
    assert(GraphOps.connectedComponents(TestGraphs.peelRounds(input, k, rounds = 2)._1).length == 1)
    // The Spark pipeline routes both cores to one task as one component.
    val pruned = KCoreSpark.prune(EdgeOps.toDF(spark, edges), k)
    try assert(ConnectedComponentsSpark.labels(pruned).components.distinct.toSeq == Seq(0L))
    finally pruned.unpersist(blocking = false)
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got == Vector((0L to 6L).toVector, (100L to 106L).toVector))
    assert(got == localReference(edges, k))
  }

  test("a skewed input, one component with 90% of the core's edges, gives the local kernel's k-VCCs") {
    val k = 4
    val big = plantedEdges(21, blocks = 12, k = k)
    val shift = big.flatMap(e => Seq(e._1, e._2)).max + 100
    val small = (0 until 2).flatMap(i => TestGraphs.erdosRenyi(k + 1, 1.0, 1, offset = shift + 10 * i))
    val edges = big ++ small
    val core = GraphOps.kCore(AdjGraph.fromEdges(edges), k)
    val sizes = GraphOps.connectedComponents(core).map(core.induced(_).m)
    assert(sizes.length >= 3 && sizes.max >= 0.9 * core.m, s"component edges ${sizes.mkString(", ")}")
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got.length > 2)
    assert(got == localReference(edges, k))
  }
}

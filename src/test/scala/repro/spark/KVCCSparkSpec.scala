package repro.spark

import repro.SparkSpec
import repro.core.{KVCCEnumerator, Variant}
import repro.gen.{Datasets, GraphGen}
import repro.graph.AdjGraph
import scala.util.Random

class KVCCSparkSpec extends SparkSpec {

  private def localReference(edges: Seq[(Long, Long)], k: Int): Vector[Vector[Long]] =
    KVCCEnumerator.canonical(KVCCEnumerator.enumerate(AdjGraph.fromEdges(edges), k, Variant.Star))

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
    assert(got == got.sortBy(v => (v.length, v.mkString(","))))
    for (i <- got.indices; j <- i + 1 until got.length)
      assert(got(i).toSet.intersect(got(j).toSet).size < k)
    // All variants agree through the distributed path too.
    val basic = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Basic)
    assert(basic == got)
  }
}

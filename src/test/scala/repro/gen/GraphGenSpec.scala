package repro.gen

import repro.{SparkSpec, TestGraphs}
import repro.graph.{AdjGraph, GraphOps}
import scala.util.Random

class GraphGenSpec extends SparkSpec {

  test("erdosRenyi p=1 is a clique, p=0 is empty") {
    assert(TestGraphs.erdosRenyi(6, 1.0, 1).size == 15)
    assert(TestGraphs.erdosRenyi(6, 0.0, 1).isEmpty)
  }

  test("erdosRenyi is deterministic in the seed") {
    assert(TestGraphs.erdosRenyi(20, 0.3, 42) == TestGraphs.erdosRenyi(20, 0.3, 42))
    assert(TestGraphs.erdosRenyi(20, 0.3, 42) != TestGraphs.erdosRenyi(20, 0.3, 43))
  }

  test("chungLu produces the requested edge count with heavy-tailed degrees") {
    val edges = GraphGen.chungLu(n = 2000, m = 6000, beta = 2.6, maxExpectedDegree = 120, new Random(1))
    assert(edges.size == 6000)
    val g = AdjGraph.fromEdges(edges)
    assert(g.maxDegree > 50, s"maxDegree=${g.maxDegree} — expected a hub-ish tail")
    assert(g.maxDegree < 240, s"maxDegree=${g.maxDegree} — expected-degree cap violated")
    // No duplicates / self loops by construction.
    assert(edges.toSet.size == edges.size)
    edges.foreach { case (a, b) => assert(a != b) }
  }

  test("hub reaches the requested degree") {
    val edges = GraphGen.hub(999L, (0 until 500).map(_.toLong), 120, new Random(1))
    assert(edges.size == 120)
    assert(edges.map(_._2).distinct.size == 120)
  }

  test("plantedBlocks: blocks share exactly the overlap vertices") {
    val rnd = new Random(5)
    val specs = Vector(
      GraphGen.BlockSpec(8, 0.9, 0),
      GraphGen.BlockSpec(8, 0.9, 3),
      GraphGen.BlockSpec(8, 0.9, 2))
    val planted = GraphGen.plantedBlocks(specs, rnd)
    assert(planted.blockVertexSets.length == 3)
    planted.blockVertexSets.foreach(b => assert(b.size == 8))
    // Later blocks intersect the union of earlier ones in exactly `overlap`.
    val b0 = planted.blockVertexSets(0)
    val b1 = planted.blockVertexSets(1)
    val b2 = planted.blockVertexSets(2)
    assert(b1.intersect(b0).size == 3)
    assert(b2.intersect(b0 ++ b1).size >= 2) // parent is one of the two
  }

  test("plantedTiny blocks are dense enough to usually be k-connected") {
    val planted = TestGraphs.plantedTiny(3, blocks = 3, seed = 1)
    val g = AdjGraph.fromEdges(planted.edges)
    assert(g.n >= 3 * 3) // 3 blocks of size 6 with overlaps of 2
    assert(GraphOps.isConnected(g))
  }

  test("Datasets.generate is deterministic and canonical") {
    val spec = Datasets.byName("DBLP")
    val e1 = Datasets.generate(spec, scale = 1.0 / 512)
    val e2 = Datasets.generate(spec, scale = 1.0 / 512)
    assert(e1 == e2)
    e1.foreach { case (a, b) => assert(a < b) }
    assert(e1.toSet.size == e1.size)
  }

  for (seed <- 1 to 10) test(s"Datasets.canonicalize equals distinct in order (seed=$seed)") {
    val rnd = new Random(seed)
    // A few hundred ids, many near the ends of Long, so pairs repeat often
    // and hash probes collide and wrap.
    val pool = Vector.fill(50 + rnd.nextInt(300))(rnd.nextInt(3) match {
      case 0 => Long.MinValue + rnd.nextInt(50)
      case 1 => Long.MaxValue - rnd.nextInt(50)
      case _ => rnd.nextLong()
    })
    def pick(): Long = pool(rnd.nextInt(pool.length))
    val edges = Vector.fill(rnd.nextInt(5000)) {
      val a = pick()
      if (rnd.nextInt(20) == 0) (a, a) else (a, pick())
    }
    val input = rnd.shuffle(edges ++ edges.map(_.swap) ++ edges.take(100))
    val expected = input.iterator.filter { case (a, b) => a != b }
      .map { case (a, b) => if (a < b) (a, b) else (b, a) }.toVector.distinct
    // Known size (Vector) and unknown size (List), which grows the table.
    assert(Datasets.canonicalize(input) == expected)
    assert(Datasets.canonicalize(input.toList) == expected)
  }

  test("Datasets.generate tracks the scaled statistics loosely") {
    for (spec <- Datasets.all.take(3)) {
      val scale = 1.0 / 256
      val g = AdjGraph.fromEdges(Datasets.generate(spec, scale))
      val targetV = math.max(500L, (spec.paperV * scale).toLong)
      val targetE = math.max(2000L, (spec.paperE * scale).toLong)
      assert(g.n > targetV / 3 && g.n < targetV * 3, s"${spec.name}: |V|=${g.n} target=$targetV")
      assert(g.m > targetE / 3 && g.m < targetE * 3, s"${spec.name}: |E|=${g.m} target=$targetE")
    }
  }

  test("Datasets substitutes contain non-trivial 20-VCC structure") {
    // The whole point of the planted layer: k=20..40 experiments have work.
    val g = AdjGraph.fromEdges(Datasets.generate(Datasets.byName("DBLP"), 1.0 / 256))
    val core = GraphOps.kCore(g, 20)
    assert(core.n > 0, "20-core is empty — planted blocks too weak")
  }

  test("byName rejects unknown datasets") {
    intercept[IllegalArgumentException](Datasets.byName("nope"))
    assert(Datasets.byName("dblp").name == "DBLP")
  }

  test("all seven paper datasets are specified") {
    assert(Datasets.all.map(_.name) ==
      Vector("Stanford", "DBLP", "Cnr", "ND", "Google", "Youtube", "Cit"))
  }
}

package repro.graph

import repro.TestGraphs.GraphViews
import repro.{SparkSpec, TestGraphs}
import scala.collection.mutable
import scala.util.Random

class AdjGraphSpec extends SparkSpec {

  /** The boxed builder that `fromEdges` replaced (sorted set of ids, hash map
    * from id to index, tuple `distinct`), kept as the differential oracle.
    */
  private def referenceFromEdges(edges: IterableOnce[(Long, Long)], extraIds: IterableOnce[Long]): AdjGraph = {
    val es = edges.iterator.filter { case (a, b) => a != b }.map {
      case (a, b) => if (a < b) (a, b) else (b, a)
    }.toArray.distinct
    val idSet = mutable.SortedSet.empty[Long]
    es.foreach { case (a, b) => idSet += a; idSet += b }
    extraIds.iterator.foreach(idSet += _)
    val ids = idSet.toArray
    val index = new mutable.HashMap[Long, Int]()
    var i = 0
    while (i < ids.length) { index.put(ids(i), i); i += 1 }
    val n = ids.length
    val degs = new Array[Int](n)
    es.foreach { case (a, b) => degs(index(a)) += 1; degs(index(b)) += 1 }
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + degs(i); i += 1 }
    val adjArr = new Array[Int](offsets(n))
    val cursor = offsets.clone()
    es.foreach { case (a, b) =>
      val u = index(a); val v = index(b)
      adjArr(cursor(u)) = v; cursor(u) += 1
      adjArr(cursor(v)) = u; cursor(v) += 1
    }
    i = 0
    while (i < n) { java.util.Arrays.sort(adjArr, offsets(i), offsets(i + 1)); i += 1 }
    AdjGraph.unsafe(ids, offsets, adjArr)
  }

  /** Random edges over a small pool of ids (negative, above `Int.MaxValue`,
    * anywhere in `Long`), so self-loops and duplicates in both directions are
    * common; the extra ids repeat, hit edge endpoints and add isolated ids.
    */
  private def randomInput(rnd: Random): (Vector[(Long, Long)], Vector[Long]) = {
    val pool = Vector.fill(1 + rnd.nextInt(40))(rnd.nextInt(4) match {
      case 0 => rnd.nextLong()
      case 1 => Int.MaxValue.toLong + rnd.nextInt(100)
      case 2 => -rnd.nextInt(100).toLong
      case _ => rnd.nextInt(30).toLong
    })
    def pick(): Long = pool(rnd.nextInt(pool.length))
    val edges = Vector.fill(rnd.nextInt(300)) {
      val a = pick()
      (a, if (rnd.nextInt(10) == 0) a else pick())
    }
    val repeats = edges.filter(_ => rnd.nextInt(3) == 0).map { case (a, b) => (b, a) }
    val extra = rnd.nextLong() +: Vector.fill(rnd.nextInt(12))(if (rnd.nextBoolean()) pick() else rnd.nextLong())
    (rnd.shuffle(edges ++ repeats), extra ++ extra.take(3))
  }

  /** The three CSR arrays of `g` equal those of `ref`. */
  private def assertSameCsr(g: AdjGraph, ref: AdjGraph, what: String): Unit = {
    assert(g.ids.sameElements(ref.ids), s"$what: ids")
    assert(g.offsets.sameElements(ref.offsets), s"$what: offsets")
    assert(g.adj.sameElements(ref.adj), s"$what: adj")
  }

  /** The edges as interleaved `(src, dst)` pairs, the input of `fromPairs`. */
  private def interleaved(edges: Seq[(Long, Long)]): Array[Long] = edges.flatMap { case (a, b) => Seq(a, b) }.toArray

  /** `fromEdges` on the edges in every input form, and `fromPairs` on them
    * when there are no extra ids, each equal to the reference builder.
    */
  private def assertMatchesReference(name: String, es: Vector[(Long, Long)], xs: Vector[Long]): Unit = {
    val ref = referenceFromEdges(es, xs)
    // Known size, single pass of unknown size, and a groupByKey-like Iterable.
    val forms = Seq[(String, () => AdjGraph)](
      "Vector" -> (() => AdjGraph.fromEdges(es, xs)),
      "Iterator" -> (() => AdjGraph.fromEdges(es.iterator, xs.iterator)),
      "Iterable" -> (() => AdjGraph.fromEdges(new Iterable[(Long, Long)] { def iterator = es.iterator }, xs))) ++
      (if (xs.isEmpty) Seq("pairs" -> (() => AdjGraph.fromPairs(interleaved(es)))) else Nil)
    for ((form, build) <- forms) assertSameCsr(build(), ref, s"$name input as $form")
  }

  for (seed <- 1 to 20) test(s"fromEdges equals the reference builder (seed=$seed)") {
    val rnd = new Random(seed)
    val (edges, extra) = randomInput(rnd)
    val cases = Seq(
      "random" -> (edges, extra),
      "no extra ids" -> (edges, Vector.empty[Long]),
      "empty" -> (Vector.empty[(Long, Long)], Vector.empty[Long]),
      "extra ids only" -> (Vector.empty[(Long, Long)], extra))
    for ((name, (es, xs)) <- cases) assertMatchesReference(name, es, xs)
  }

  for (seed <- 1 to 20) test(s"fromPairs equals fromEdges (seed=$seed)") {
    val (edges, _) = randomInput(new Random(seed))
    assertSameCsr(AdjGraph.fromPairs(interleaved(edges)), AdjGraph.fromEdges(edges), "random input")
  }

  test("fromPairs rejects an odd number of ids") {
    intercept[IllegalArgumentException](AdjGraph.fromPairs(Array(1L, 2L, 3L)))
  }

  /** `edges` random pairs over `pool` with self-loops and reversed repeats,
    * and every id of `pool` again, repeated, as extra ids.
    */
  private def inputOver(rnd: Random, pool: Array[Long], edges: Int): (Vector[(Long, Long)], Vector[Long]) = {
    def pick(): Long = pool(rnd.nextInt(pool.length))
    val es = Vector.fill(edges) {
      val a = pick()
      (a, if (rnd.nextInt(20) == 0) a else pick())
    }
    val repeats = es.filter(_ => rnd.nextInt(4) == 0).map { case (a, b) => (b, a) }
    (rnd.shuffle(es ++ repeats), rnd.shuffle(pool.toVector ++ pool.take(pool.length / 10)))
  }

  // A partition's id table starts with slots for a quarter of its entries and
  // doubles when half full. These inputs have one to two entries per distinct
  // id, so the tables grow, most of all when the extra ids alone fill them.
  // Each input is one chunk, over one partition (n = 5000) up to eight
  // (n = 50000).
  for (n <- Seq(5000, 15000, 30000, 50000)) test(s"fromEdges equals the reference builder past table growths (n=$n)") {
    val rnd = new Random(n)
    val pool = Iterator.continually(rnd.nextLong()).distinct.take(n).toArray
    val (edges, extra) = inputOver(rnd, pool, n / 4 + rnd.nextInt(n / 4))
    assertMatchesReference("sparse", edges, extra)
    assertMatchesReference("edges only", edges, Vector.empty)
    assertMatchesReference("extra ids only", Vector.empty, extra)
  }

  test("fromEdges equals the reference builder on ids that share their low bits") {
    val extremes = Seq(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
    val highOnly = (-1000L to 1000L).map(_ << 32) // all equal in the low 32 bits
    val tableMultiples = for (b <- 4 to 24; i <- 1L to 100L) yield i << b // equal modulo a table size
    val pool = (extremes ++ highOnly ++ tableMultiples).distinct.toArray
    val rnd = new Random(7)
    val (edges, extra) = inputOver(rnd, pool, 2 * pool.length)
    val pinned = Vector((Long.MinValue, Long.MaxValue), (0L, -1L), (1L << 32, 0L), (Long.MinValue, 0L))
    assertMatchesReference("low-bit collisions", pinned ++ edges, extra)
    assertMatchesReference("low-bit collisions, edges only", pinned ++ edges, Vector.empty)
    assertMatchesReference("low-bit collisions, extra ids only", Vector.empty, extra)
  }

  // From 2^17 endpoints and extra ids on, the build runs in several chunks
  // (eight from 2^19 on), whatever the number of cores.
  test("fromEdges equals the reference builder on 300k pairs in eight chunks") {
    val rnd = new Random(11)
    val extremes = Array(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
    val negatives = Array.fill(20000)(-1L - rnd.nextInt(1 << 30))
    val pool = (extremes ++ negatives ++ Array.fill(40000)(rnd.nextLong())).distinct
    val (edges, extra) = inputOver(rnd, pool, 250000)
    assert(edges.length >= 300000)
    val pinned = Vector((Long.MinValue, Long.MaxValue), (Long.MaxValue, Long.MinValue), (Long.MinValue, Long.MinValue))
    assertMatchesReference("300k pairs", pinned ++ edges, extra)
    assertMatchesReference("300k pairs, edges only", pinned ++ edges, Vector.empty)
  }

  test("fromEdges equals the reference builder on a star whose hub has 200k leaves") {
    val rnd = new Random(12)
    val leaves = Vector.tabulate(200000)(i => 7L * i - 500000L).filter(_ != 3L)
    val spokes = leaves.map(l => if (rnd.nextBoolean()) (3L, l) else (l, 3L))
    val repeats = spokes.filter(_ => rnd.nextInt(10) == 0).map(_.swap)
    assertMatchesReference("star", rnd.shuffle(spokes ++ repeats), Vector.empty)
  }

  /** The inverse of `AdjGraph.mix`, so that a test can choose ids by their
    * hash. Each multiplier is inverted modulo 2^64 by Newton's iteration,
    * which doubles the correct low bits from three; `x ^= x >>> 33` is its
    * own inverse.
    */
  private def unmix(h0: Long): Long = {
    def inverse(c: Long): Long = { var x = c; for (_ <- 1 to 5) x *= 2 - c * x; x }
    var h = h0
    h ^= h >>> 33; h *= inverse(0xc4ceb9fe1a85ec53L)
    h ^= h >>> 33; h *= inverse(0xff51afd7ed558ccdL)
    h ^ (h >>> 33)
  }

  test("fromEdges equals the reference builder on ids that all fall into one partition") {
    val rnd = new Random(13)
    val hashes = Iterator.continually(rnd.nextLong() >>> 24).distinct.take(40000).toArray // top 24 bits zero
    val pool = hashes.map(unmix)
    assert(pool.map(AdjGraph.mix).sameElements(hashes))
    val (edges, extra) = inputOver(rnd, pool, 120000)
    assertMatchesReference("one partition", edges, extra)
  }

  test("fromEdges gives the same arrays for the same edge set in two shuffled orders") {
    val rnd = new Random(14)
    val pool = Array.fill(30000)(rnd.nextLong())
    val (edges, _) = inputOver(rnd, pool, 200000)
    val reordered = rnd.shuffle(edges).map(e => if (rnd.nextBoolean()) e.swap else e)
    val ref = referenceFromEdges(edges, Nil)
    assertSameCsr(AdjGraph.fromEdges(edges), ref, "first order")
    assertSameCsr(AdjGraph.fromEdges(reordered), ref, "second order")
    assertSameCsr(AdjGraph.fromPairs(interleaved(reordered)), ref, "second order as pairs")
  }

  test("empty graph") {
    val g = TestGraphs.empty
    assert(g.n == 0)
    assert(g.m == 0)
  }

  test("basic construction: triangle") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    assert(g.n == 3)
    assert(g.m == 3)
    assert((0 until 3).forall(v => g.degree(v) == 2))
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 2) && g.hasEdge(0, 2))
  }

  test("self-loops dropped, duplicates merged, direction ignored") {
    val g = AdjGraph.fromEdges(Seq((5L, 5L), (1L, 2L), (2L, 1L), (1L, 2L), (2L, 3L)))
    assert(g.m == 2)
    // The (5,5) loop is dropped entirely, so vertex 5 never materializes.
    assert(g.ids.toSet == Set(1L, 2L, 3L))
  }

  test("extraIds adds isolated vertices") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L)), extraIds = Seq(9L, 1L))
    assert(g.n == 3)
    assert(g.ids.toSet == Set(1L, 2L, 9L))
    assert(g.degree(g.ids.indexOf(9L)) == 0)
  }

  test("ids are sorted and adjacency sorted") {
    val g = AdjGraph.fromEdges(Seq((30L, 10L), (10L, 20L), (30L, 20L), (40L, 10L)))
    assert(g.ids.toSeq == Seq(10L, 20L, 30L, 40L))
    (0 until g.n).foreach { v =>
      val nb = g.adj.slice(g.offsets(v), g.offsets(v + 1)).toVector
      assert(nb == nb.sorted)
      assert(nb.distinct == nb)
    }
  }

  test("induced subgraph keeps original ids and edges") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 1L), (1L, 3L)))
    val sub = g.induced(Array(0, 1, 2)) // ids 1,2,3
    assert(sub.ids.toSet == Set(1L, 2L, 3L))
    assert(sub.m == 3) // (1,2),(2,3),(1,3)
  }

  test("induced on unsorted keep array") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    val sub = g.induced(Array(3, 1, 0)) // ids 4,2,1
    assert(sub.ids.toSet == Set(1L, 2L, 4L))
    assert(sub.m == 1) // only (1,2)
  }

  test("edgeList round-trips") {
    val rnd = new Random(42)
    val edges = (0 until 60).map(_ => (rnd.nextInt(20).toLong, rnd.nextInt(20).toLong))
    val g = AdjGraph.fromEdges(edges)
    val g2 = AdjGraph.fromEdges(g.edgeList)
    assert(g2.n == g.n && g2.m == g.m)
    assert(g2.edgeList.toSet == g.edgeList.toSet)
  }

  test("hasEdge matches neighbor lists on random graphs") {
    for (seed <- 1 to 5) {
      val rnd = new Random(seed)
      val edges = (0 until 80).map(_ => (rnd.nextInt(15).toLong, rnd.nextInt(15).toLong))
      val g = AdjGraph.fromEdges(edges)
      for (u <- 0 until g.n; v <- 0 until g.n) {
        assert(g.hasEdge(u, v) == g.adj.slice(g.offsets(u), g.offsets(u + 1)).contains(v), s"seed=$seed u=$u v=$v")
        assert(g.hasEdge(u, v) == g.hasEdge(v, u))
      }
    }
  }

  test("degree sums to 2m") {
    for (seed <- 1 to 10) {
      val rnd = new Random(seed)
      val edges = (0 until 100).map(_ => (rnd.nextInt(25).toLong, rnd.nextInt(25).toLong))
      val g = AdjGraph.fromEdges(edges)
      assert((0 until g.n).map(g.degree).sum == 2 * g.m)
    }
  }

  test("minDegreeVertex / maxDegree") {
    val g = AdjGraph.fromEdges(Seq((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L)))
    assert(g.ids(g.minDegreeVertex) == 4L)
    assert(g.maxDegree == 3)
    assert(g.minDegree == 1)
  }

  test("fromLocalEdges uses positional ids") {
    val g = TestGraphs.fromLocalEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    assert(g.n == 4)
    assert(g.ids.toSeq == Seq(0L, 1L, 2L, 3L))
  }

  /** `induced` built from sets: the kept vertices in ascending order, and an
    * edge wherever both ends are kept.
    */
  private def referenceInduced(g: AdjGraph, keep: Array[Int]): AdjGraph = {
    val kept = keep.toSet.toVector.sorted
    val index = kept.zipWithIndex.toMap
    val lists = kept.map(v => g.adj.slice(g.offsets(v), g.offsets(v + 1)).filter(index.contains).map(index))
    AdjGraph.unsafe(kept.map(g.ids).toArray, lists.scanLeft(0)(_ + _.length).toArray, lists.flatten.toArray)
  }

  test("induced equals a set-based construction, array for array") {
    val rnd = new Random(7)
    for (seed <- 1 to 40) {
      val n = 1 + rnd.nextInt(40)
      val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(n, rnd.nextDouble(), seed, offset = 100L),
        extraIds = 100L until 100L + n)
      val all = rnd.shuffle((0 until n).toVector)
      val keeps = Seq(Array.emptyIntArray, Array(rnd.nextInt(n)), all.toArray, (0 until n).toArray) ++
        Seq.fill(6)(all.filter(_ => rnd.nextBoolean()).toArray)
      for (keep <- keeps) {
        val got = g.induced(keep)
        val want = referenceInduced(g, keep)
        val what = s"seed=$seed keep=${keep.toList}"
        assert(got.ids.sameElements(want.ids), what)
        assert(got.offsets.sameElements(want.offsets), what)
        assert(got.adj.sameElements(want.adj), what)
      }
    }
  }
}

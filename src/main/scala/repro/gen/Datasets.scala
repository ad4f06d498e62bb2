package repro.gen

import repro.graph.AdjGraph
import scala.util.Random

/** Synthetic substitutes for the paper's seven SNAP datasets (Table 1).
  *
  * Each substitute combines (a) a planted layer of dense blocks whose target
  * connectivities spread over ~15–70, chained by shared-vertex cuts of size
  * 2–12 (the structure the k ∈ [20,40] experiments exercise), (b) a Chung–Lu
  * power-law background plus hub vertices tuned so |V|, |E|, density = |E|/|V|
  * and max degree track the paper's Table 1 statistics at `scale`, and (c) a
  * few low-degree attachment edges tying blocks to the background. The
  * background/hubs are stripped by the k-core phase for k ≥ 20, mirroring the
  * real datasets where the deep cores are tiny relative to the graph.
  */
object Datasets {

  /** Paper Table 1 row (the statistics we scale down and compare against). */
  final case class DatasetSpec(
      name: String,
      paperV: Long,
      paperE: Long,
      paperDensity: Double,
      paperMaxDegree: Long,
      seed: Long)

  /** The paper's Table 1 (Youtube's row is cut off in the text extraction;
    * values taken from SNAP com-Youtube, which the paper describes).
    */
  val all: Vector[DatasetSpec] = Vector(
    DatasetSpec("Stanford",   281903L,  2312497L, 8.20, 38625L, seed = 11),
    DatasetSpec("DBLP",       317080L,  1049866L, 3.31,   343L, seed = 12),
    DatasetSpec("Cnr",        325557L,  3216152L, 9.88, 18236L, seed = 13),
    DatasetSpec("ND",         325729L,  1497134L, 4.60, 10721L, seed = 14),
    DatasetSpec("Google",     875713L,  5105039L, 5.83,  6332L, seed = 15),
    DatasetSpec("Youtube",   1134890L,  2987624L, 2.63, 28754L, seed = 16),
    DatasetSpec("Cit",       3774768L, 16518948L, 4.38,   793L, seed = 17),
  )

  def byName(name: String): DatasetSpec =
    all.find(_.name.equalsIgnoreCase(name))
      .getOrElse(throw new IllegalArgumentException(
        s"unknown dataset '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** Default benchmark scale: 1/32 of the paper's graph sizes. */
  val DefaultScale: Double = 1.0 / 32

  /** Generate the synthetic substitute at `scale`. Deterministic in
    * (spec.seed, scale). Returns a canonical undirected edge list.
    */
  def generate(spec: DatasetSpec, scale: Double = DefaultScale): Vector[(Long, Long)] = {
    val rnd = new Random(spec.seed)
    val targetV = math.max(500L, (spec.paperV * scale).toLong)
    val targetE = math.max(2000L, (spec.paperE * scale).toLong)
    val targetMaxDeg = math.max(60, (spec.paperMaxDegree * scale).toInt)

    // --- Planted layer: blocks sized so ~55% of the edge budget remains for
    // the background (keeps overall density near the paper's column).
    val avgBlockEdges = 900.0
    val numBlocks = math.max(4, math.min(targetV / 300.0, 0.45 * targetE / avgBlockEdges).toInt)
    val specs = Vector.fill(numBlocks) {
      // Target connectivity: strongly skewed toward small so the 20-core far
      // exceeds the 40-core and both counts and runtimes fall as k rises
      // (paper Figs. 10–11 shape).
      val r = rnd.nextDouble()
      val kappaTarget = 15 + (55 * r * r * r).toInt
      val size = math.max(25, (kappaTarget * 1.35).toInt + rnd.nextInt(16))
      val p = math.min(0.95, (kappaTarget * 1.15) / (size - 1).toDouble)
      val overlap = 2 + rnd.nextInt(11) // 2..12, always < 20 ≤ k
      GraphGen.BlockSpec(size, p, overlap)
    }
    val planted = GraphGen.plantedBlocks(specs, rnd, startId = 0L)
    val blockEdges = planted.edges
    val blockVertices = planted.nextId

    // --- Background: Chung–Lu power-law on the remaining vertex budget.
    val nBg = math.max(100, (targetV - blockVertices - 2).toInt)
    val mBg = math.max(200, (targetE - blockEdges.length - targetMaxDeg - 3L * numBlocks).toInt)
    val bgOffset = blockVertices
    val bgEdges = GraphGen.chungLu(
      n = nBg, m = mBg, beta = 2.6,
      maxExpectedDegree = math.max(8.0, targetMaxDeg / 3.0),
      rnd = rnd, offset = bgOffset)

    // --- Hubs: reproduce the max-degree column. Hub neighbors are low-degree
    // background vertices, so the k-core phase strips hubs for k ≥ 20.
    val hubId = bgOffset + nBg
    val bgIds = (0 until nBg).map(bgOffset + _)
    val hubEdges = GraphGen.hub(hubId, bgIds, targetMaxDeg, rnd)

    // --- Attachments: tie each block to the background (low-degree bridges).
    val attach = Vector.newBuilder[(Long, Long)]
    planted.blockVertexSets.foreach { blk =>
      val b = blk.toVector
      var i = 0
      while (i < 3 && i < b.length) {
        attach += ((b(rnd.nextInt(b.length)), bgIds(rnd.nextInt(bgIds.length))))
        i += 1
      }
    }

    canonicalize(blockEdges ++ bgEdges ++ hubEdges ++ attach.result())
  }

  /** Dedup + drop self loops + orient (low, high), keeping the order of first
    * occurrence (the order `.distinct` gives), with no boxed key.
    */
  def canonicalize(edges: Seq[(Long, Long)]): Vector[(Long, Long)] = {
    val seen = new PairSet(edges.knownSize)
    val out = Vector.newBuilder[(Long, Long)]
    val it = edges.iterator
    while (it.hasNext) {
      val e = it.next()
      val lo = math.min(e._1, e._2)
      val hi = math.max(e._1, e._2)
      if (lo != hi && seen.add(lo, hi)) out += ((lo, hi))
    }
    out.result()
  }

  /** A set of pairs (lo, hi) with lo < hi: open addressing with linear
    * probing over two `Long` arrays, kept at most half full. A slot is empty
    * while its two halves are equal, which no stored pair is.
    */
  private final class PairSet(expected: Int) {
    private var mask = Integer.highestOneBit(math.max(expected, 8) * 2) * 2 - 1
    private var lows = new Array[Long](mask + 1)
    private var highs = new Array[Long](mask + 1)
    private var size = 0

    /** Adds (lo, hi); false if it was already present. */
    def add(lo: Long, hi: Long): Boolean = {
      val i = slot(lo, hi)
      if (lows(i) != highs(i)) false
      else {
        lows(i) = lo; highs(i) = hi; size += 1
        if (2 * size > mask) grow()
        true
      }
    }

    /** The slot holding (lo, hi), or the empty slot where it belongs. */
    private def slot(lo: Long, hi: Long): Int = {
      var i = (AdjGraph.mix(lo * 0x9E3779B97F4A7C15L + hi) & mask).toInt
      while (lows(i) != highs(i) && (lows(i) != lo || highs(i) != hi)) i = (i + 1) & mask
      i
    }

    private def grow(): Unit = {
      val (oldLows, oldHighs) = (lows, highs)
      mask = 2 * mask + 1
      lows = new Array[Long](mask + 1)
      highs = new Array[Long](mask + 1)
      var j = 0
      while (j < oldLows.length) {
        if (oldLows(j) != oldHighs(j)) {
          val i = slot(oldLows(j), oldHighs(j))
          lows(i) = oldLows(j); highs(i) = oldHighs(j)
        }
        j += 1
      }
    }
  }
}

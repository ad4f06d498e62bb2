package repro.gen

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators (edge lists over Long ids).
  *
  * The paper's datasets are SNAP downloads; the sealed container is offline,
  * so benchmarks run on synthetic substitutes assembled from these parts
  * (see DESIGN.md §5 for the substitution argument).
  */
object GraphGen {

  /** Erdős–Rényi G(n, p) over the given vertex ids. */
  def erdosRenyi(ids: IndexedSeq[Long], p: Double, rnd: Random): Vector[(Long, Long)] = {
    val buf = Vector.newBuilder[(Long, Long)]
    var i = 0
    while (i < ids.length) {
      var j = i + 1
      while (j < ids.length) {
        if (rnd.nextDouble() < p) buf += ((ids(i), ids(j)))
        j += 1
      }
      i += 1
    }
    buf.result()
  }

  /** Chung–Lu power-law graph: `m` edges sampled with endpoint probability
    * proportional to weights `w_i ∝ (i+1)^{-1/(β-1)}`, with the weights capped
    * so the maximum *expected degree* (2m·w_max/Σw) is ≈ `maxExpectedDegree`.
    */
  def chungLu(
      n: Int,
      m: Int,
      beta: Double,
      maxExpectedDegree: Double,
      rnd: Random,
      offset: Long = 0L): Vector[(Long, Long)] = {
    if (n < 2 || m <= 0) return Vector.empty
    val exp = -1.0 / (beta - 1.0)
    val shape = Array.tabulate(n)(i => math.pow(i + 1.0, exp)) // s_0 = 1 is max
    // Fixed point for the weight cap: expected degree of a capped vertex is
    // 2m·cap/Σw, so cap = maxExpectedDegree·Σw/(2m); a few iterations settle.
    var cap = 1.0
    var iter = 0
    while (iter < 5) {
      val sumW = shape.map(math.min(cap, _)).sum
      cap = math.min(1.0, maxExpectedDegree * sumW / (2.0 * m))
      iter += 1
    }
    val w = shape.map(math.min(cap, _))
    // Cumulative distribution for weight-proportional sampling.
    val cum = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += w(i); cum(i) = acc; i += 1 }
    def draw(): Int = {
      val x = rnd.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      lo
    }
    val seen = mutable.HashSet.empty[Long]
    val buf = Vector.newBuilder[(Long, Long)]
    var produced = 0
    var attempts = 0
    val maxAttempts = 20L * m
    while (produced < m && attempts < maxAttempts) {
      attempts += 1
      val a = draw(); val b = draw()
      if (a != b) {
        val lo = math.min(a, b); val hi = math.max(a, b)
        val key = lo.toLong * n + hi
        if (seen.add(key)) {
          buf += ((offset + lo, offset + hi))
          produced += 1
        }
      }
    }
    buf.result()
  }

  /** A hub vertex of the requested degree wired to uniform targets. */
  def hub(hubId: Long, targets: IndexedSeq[Long], degree: Int, rnd: Random): Vector[(Long, Long)] = {
    val d = math.min(degree, targets.length)
    rnd.shuffle(targets.toVector).take(d).map(t => (hubId, t))
  }

  /** Specification of one planted dense block (an intended k-VCC). */
  final case class BlockSpec(size: Int, p: Double, overlap: Int)

  /** Result of a planted construction. */
  final case class Planted(
      edges: Vector[(Long, Long)],
      blockVertexSets: Vector[Set[Long]],
      nextId: Long)

  /** Plant dense ER blocks chained into a random tree: block i shares
    * `overlap` vertices with a random earlier block. Shared vertex sets are
    * vertex cuts of the union, so (for k > overlap) the enumeration must
    * rediscover the blocks, duplicating exactly the shared vertices.
    */
  def plantedBlocks(specs: Seq[BlockSpec], rnd: Random, startId: Long = 0L): Planted = {
    val edges = Vector.newBuilder[(Long, Long)]
    val blockSets = Vector.newBuilder[Set[Long]]
    // Overlaps are drawn from the parent's *fresh* vertices only, so every
    // vertex belongs to at most two blocks and planted degrees stay bounded
    // (otherwise popular overlap vertices accumulate hub-like degrees).
    val freshByBlock = mutable.ArrayBuffer.empty[Vector[Long]]
    var nextId = startId
    specs.foreach { spec =>
      val shared: Vector[Long] =
        if (freshByBlock.isEmpty || spec.overlap <= 0) Vector.empty
        else {
          val parent = freshByBlock(rnd.nextInt(freshByBlock.length))
          rnd.shuffle(parent).take(math.min(spec.overlap, parent.length))
        }
      val fresh = (0 until (spec.size - shared.length)).map { _ =>
        val id = nextId; nextId += 1; id
      }.toVector
      val vertices = shared ++ fresh
      edges ++= erdosRenyi(vertices, spec.p, rnd)
      freshByBlock += fresh
      blockSets += vertices.toSet
    }
    Planted(edges.result(), blockSets.result(), nextId)
  }
}

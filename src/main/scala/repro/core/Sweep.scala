package repro.core

import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable

/** Enumeration variants evaluated in the paper (Section 6.2). */
sealed abstract class Variant(
    val name: String,
    val neighborSweep: Boolean,
    val groupSweep: Boolean)
    extends Serializable

object Variant {
  /** VCCE — basic Algorithm 2, no sweeping. */
  case object Basic extends Variant("VCCE", false, false)
  /** VCCE-N — neighbor sweep only (strong side-vertices + vertex deposits). */
  case object NeighborSweep extends Variant("VCCE-N", true, false)
  /** VCCE-G — group sweep only (side-groups + group deposits). */
  case object GroupSweep extends Variant("VCCE-G", false, true)
  /** VCCE* — both strategies. */
  case object Star extends Variant("VCCE*", true, true)

  val all: Vector[Variant] = Vector(Basic, NeighborSweep, GroupSweep, Star)
}

/** Mutable counters aggregated over a whole KVCC-ENUM run.
  *
  * The phase-1 counters implement the paper's Table 2 accounting: for each
  * vertex processed by GLOBAL-CUT*'s phase-1 loop, which rule (if any) had
  * already swept it. Not thread-safe: each task of a run owns its instance,
  * and `+=` sums them when the tasks complete.
  */
final class KvccStats extends Serializable {
  var globalCutCalls: Long = 0
  var partitions: Long = 0
  // LOC-CUT tests on non-adjacent pairs (both phases), whether the
  // common-neighbour seed or an augmenting BFS answers them.
  var flowTests: Long = 0
  var phase1Processed: Long = 0
  var phase1Tested: Long = 0  // Non-Pru: reached LOC-CUT in phase 1
  var prunedNs1: Long = 0     // neighbor sweep rule 1 (strong side-vertex)
  var prunedNs2: Long = 0     // neighbor sweep rule 2 (vertex deposit)
  var prunedGs: Long = 0      // group sweep (rules 1 and 2)

  /** Adds every counter of `o` to this one's. */
  def +=(o: KvccStats): Unit = {
    globalCutCalls += o.globalCutCalls
    partitions += o.partitions
    flowTests += o.flowTests
    phase1Processed += o.phase1Processed
    phase1Tested += o.phase1Tested
    prunedNs1 += o.prunedNs1
    prunedNs2 += o.prunedNs2
    prunedGs += o.prunedGs
  }

  def proportionNs1: Double = ratio(prunedNs1)
  def proportionNs2: Double = ratio(prunedNs2)
  def proportionGs: Double = ratio(prunedGs)
  def proportionNonPruned: Double = ratio(phase1Tested)
  private def ratio(x: Long): Double =
    if (phase1Processed == 0) 0.0 else x.toDouble / phase1Processed

  override def toString: String =
    f"KvccStats(calls=$globalCutCalls, partitions=$partitions, flows=$flowTests, " +
      f"NS1=$proportionNs1%.2f, NS2=$proportionNs2%.2f, GS=$proportionGs%.2f, nonPru=$proportionNonPruned%.2f)"
}

/** Strong side-vertex detection (Definition 10 / Theorem 8): u is a strong
  * side-vertex if every pair of its neighbors is adjacent or shares at least
  * k common neighbors — then no vertex cut of size < k contains u.
  *
  * Evaluation is lazy and memoized: a GLOBAL-CUT* invocation that finds its
  * cut after a couple of local connectivity tests only pays for the few
  * vertices it actually touched, while a full phase-1 pass over a k-connected
  * component amortizes to the same O(Σ d(w)²) as the paper's eager scan
  * (Lemma 14). This replaces the paper's incremental maintenance across
  * partitions (Lemmas 15/16), which is not sound once k-core pruning is
  * interleaved with partitioning (neighborhood shrinkage can both create and
  * destroy the property); lazy evaluation is always correct and has the same
  * amortized cost profile.
  */
final class StrongSideVertex(g: AdjGraph, k: Int) {
  private val state = new Array[Byte](g.n) // 0 unknown, 1 yes, 2 no
  private val pairOk = new mutable.LongMap[Boolean]()

  private def ok(a: Int, b: Int): Boolean = {
    val key = (math.min(a, b).toLong << 32) | (math.max(a, b).toLong & 0xffffffffL)
    pairOk.getOrElseUpdate(
      key,
      g.hasEdge(a, b) || GraphOps.commonNeighborsAtLeast(g, a, b, k))
  }

  /** True iff `u` satisfies Theorem 8 in `g`. */
  def apply(u: Int): Boolean = state(u) match {
    case 1 => true
    case 2 => false
    case _ =>
      val adj = g.adj
      val end = g.offsets(u + 1)
      var good = true
      var i = g.offsets(u)
      while (good && i < end) {
        var j = i + 1
        while (good && j < end) {
          if (!ok(adj(i), adj(j))) good = false
          j += 1
        }
        i += 1
      }
      state(u) = if (good) 1 else 2
      good
  }
}

/** GLOBAL-CUT (Algorithm 2) and GLOBAL-CUT* (Algorithm 3) with the SWEEP
  * procedure (Algorithm 4): find a vertex cut of size < k, or prove the graph
  * k-connected.
  *
  * Phase 1 tests the source u against every other vertex (covers every cut
  * avoiding u); phase 2 tests pairs of neighbors of u (covers cuts containing
  * u, Lemma 4). All testing happens on the sparse certificate; because the
  * certificate is strong, a returned cut is a cut of the input graph too.
  *
  * The neighbor-sweep and group-sweep strategies are individually switchable,
  * so all four variants share this loop; VCCE (both off) is Algorithm 2.
  * Strong side-vertices feed both strategies (neighbor rule 1 and group
  * rule 1) and the phase-2 skip, so they are computed whenever either
  * strategy is on.
  */
object GlobalCutStar {

  // Rule tags recorded per swept vertex, for Table 2 accounting.
  private final val RuleNone: Byte = 0
  private final val RuleNs1: Byte = 1
  private final val RuleNs2: Byte = 2
  private final val RuleGs: Byte = 3

  /** Returns Some(cut local indices) with |cut| < k, or None if k-connected. */
  def find(g: AdjGraph, k: Int, variant: Variant, stats: KvccStats = new KvccStats): Option[Array[Int]] = {
    val SparseCertificate.Cert(cert, allGroups) = SparseCertificate.compute(g, k)
    val n = cert.n
    val fn = new FlowNetwork(cert)
    val sweeping = variant.neighborSweep || variant.groupSweep

    val groups: Vector[Array[Int]] = if (variant.groupSweep) allGroups else Vector.empty
    val groupOf = Array.fill(n)(-1)
    var gi = 0
    while (gi < groups.length) {
      val grp = groups(gi)
      var i = 0
      while (i < grp.length) { groupOf(grp(i)) = gi; i += 1 }
      gi += 1
    }

    val ssv = new StrongSideVertex(cert, k)

    // Source selection: the paper picks any strong side-vertex when one
    // exists (then phase 2 is provably unnecessary). An eager scan for one
    // would defeat the lazy evaluation, so we pick a min-degree vertex and
    // check ssv(u) lazily where it matters (initial sweep + phase-2 skip).
    val u = cert.minDegreeVertex

    val deposit = new Array[Int](n)
    val pru = new Array[Boolean](n)
    val ruleOf = new Array[Byte](n)
    val gDeposit = new Array[Int](groups.length)
    val gProcessed = new Array[Boolean](groups.length)

    // SWEEP (Algorithm 4), iterative to avoid deep recursion. With both
    // strategies off it only marks v0 itself. `mark` pushes each vertex at
    // most once (when `pru` turns true), so n stack slots are enough.
    val stack = new Array[Int](n)
    var top = 0
    def mark(v: Int, rule: Byte): Unit = {
      pru(v) = true; ruleOf(v) = rule; stack(top) = v; top += 1
    }
    def sweep(v0: Int, rule0: Byte): Unit = {
      if (pru(v0)) return
      mark(v0, rule0)
      while (top > 0) {
        top -= 1
        val v = stack(top)
        // Memoized, evaluated at most once per processed vertex.
        lazy val vIsSsv = ssv(v)
        // Neighbor sweep: deposits + rules NS1/NS2.
        if (variant.neighborSweep) {
          cert.foreachNeighbor(v) { w =>
            if (!pru(w)) {
              deposit(w) += 1
              if (vIsSsv) mark(w, RuleNs1)
              else if (deposit(w) >= k) mark(w, RuleNs2)
            }
          }
        }
        // Group sweep: group deposits + rules GS1/GS2.
        if (variant.groupSweep) {
          val gi = groupOf(v)
          if (gi >= 0 && !gProcessed(gi)) {
            gDeposit(gi) += 1
            if (vIsSsv || gDeposit(gi) >= k) {
              gProcessed(gi) = true
              val grp = groups(gi)
              var i = 0
              while (i < grp.length) {
                val w = grp(i)
                if (!pru(w)) mark(w, RuleGs)
                i += 1
              }
            }
          }
        }
      }
    }

    // The source is local-k-connected with itself: sweep it first (line 10).
    sweep(u, RuleNone)

    // Phase 1. With a sweep on, in non-ascending distance from u: far
    // vertices are the likeliest to sit across a cut, so the cut is found
    // early. VCCE tests in index order.
    val order =
      if (sweeping) farthestFirst(GraphOps.bfsDistances(cert, u), u)
      else Array.range(0, n).filter(_ != u)

    var idx = 0
    while (idx < order.length) {
      val v = order(idx)
      stats.phase1Processed += 1
      if (pru(v)) {
        ruleOf(v) match {
          case RuleNs1 => stats.prunedNs1 += 1
          case RuleNs2 => stats.prunedNs2 += 1
          case RuleGs  => stats.prunedGs += 1
          case _       => () // swept as the source's own mark — not counted
        }
      } else {
        stats.phase1Tested += 1
        if (!cert.hasEdge(u, v)) stats.flowTests += 1
        val cut = fn.locCut(u, v, k)
        if (cut.isDefined) return cut
        sweep(v, RuleNone)
      }
      idx += 1
    }

    // Phase 2: only needed when the source might itself be in a cut. VCCE
    // does not evaluate strong side-vertices and always runs it.
    if (!sweeping || !ssv(u)) {
      val adj = cert.adj
      val end = cert.offsets(u + 1)
      var i = cert.offsets(u)
      while (i < end) {
        var j = i + 1
        while (j < end) {
          val a = adj(i); val b = adj(j)
          // Group sweep rule 3: same side-group ⇒ local-k-connected.
          val sameGroup = variant.groupSweep && groupOf(a) >= 0 && groupOf(a) == groupOf(b)
          if (!sameGroup) {
            if (!cert.hasEdge(a, b)) stats.flowTests += 1
            val cut = fn.locCut(a, b, k)
            if (cut.isDefined) return cut
          }
          j += 1
        }
        i += 1
      }
    }
    None
  }

  /** Every vertex but `u`, by non-ascending `dist` and in index order
    * within a distance: a counting sort. Unreached vertices (−1) go last,
    * though the per-component invocation reaches every vertex from u.
    */
  private def farthestFirst(dist: Array[Int], u: Int): Array[Int] = {
    val n = dist.length
    var maxD = 0
    var v = 0
    while (v < n) { if (dist(v) > maxD) maxD = dist(v); v += 1 }
    // Bucket maxD − dist: 0 for the farthest, maxD + 1 for unreached.
    val start = new Array[Int](maxD + 3)
    v = 0
    while (v < n) { if (v != u) start(maxD - dist(v) + 1) += 1; v += 1 }
    var b = 0
    while (b <= maxD + 1) { start(b + 1) += start(b); b += 1 }
    val order = new Array[Int](n - 1)
    v = 0
    while (v < n) {
      if (v != u) {
        val bv = maxD - dist(v)
        order(start(bv)) = v; start(bv) += 1
      }
      v += 1
    }
    order
  }
}

/** Basic GLOBAL-CUT under its own name: GLOBAL-CUT* with both sweeps off.
  * The program calls `GlobalCutStar.find` directly; this forwarder remains
  * only because the benchmark's traced replay
  * (`perfbench/src/main/scala/perfbench/Replay.scala`) calls it, and the
  * benchmark sources change only with the benchmark itself. Delete it at the
  * next benchmark change.
  */
object GlobalCut {
  def find(g: AdjGraph, k: Int, stats: KvccStats = new KvccStats): Option[Array[Int]] =
    GlobalCutStar.find(g, k, Variant.Basic, stats)
}

package repro.core

import repro.graph.AdjGraph
import scala.collection.mutable

/** Directed flow graph for local vertex-connectivity testing (Section 4.1),
  * held as flow state beside the CSR of `g` with an implicit vertex split
  * (Even & Tarjan, SIAM J. Comput. 4(4), 1975).
  *
  * Every vertex `x` splits into `x_in = 2x` and `x_out = 2x+1` joined by an
  * arc of capacity 1, whose unit is `split(x)`; each neighbour `w` of `x`
  * gives the arc `x_out→w_in` with unbounded capacity. Only split arcs can
  * saturate, so every minimum cut maps 1:1 to a vertex cut — Even's classic
  * construction; the cut *value* is identical to the paper's
  * all-capacity-1 variant. An in-node other than the sink's has one out-arc,
  * its split arc, so at most one unit enters it, and one predecessor per
  * vertex holds the flow: `prev(x)` is the vertex whose out-node sends the
  * unit into `x_in`, or −1. The residual arcs are:
  *
  *  - from `x_in`: to `x_out` if `!split(x)`, and to `prev(x)_out` if
  *    `prev(x) ≥ 0`;
  *  - from `x_out`: to `x_in` if `split(x)`, and to every `w_in`.
  *
  * Max-flow is seeded, then finished by BFS augmentation (Edmonds–Karp), with
  * early termination at a caller-supplied bound `k`. Each common neighbour
  * `w` of `u` and `v` is a path `u_out→w_in→w_out→v_in`, vertex-disjoint
  * from the others (the paths behind Lemma 13's strong side-vertex test), so
  * a sorted merge of the two adjacency lists pushes `c` units at once. Each
  * augmenting path carries exactly one unit (it must traverse a capacity-1
  * split arc), so a LOC-CUT test costs an O(d(u)+d(v)) merge plus
  * (k−c)·O(m) BFS, and none when `c ≥ k`. The network is built once per
  * GLOBAL-CUT invocation, in O(n); each flow computation first clears only
  * the vertices the previous one touched.
  */
final class FlowNetwork(g: AdjGraph) {
  private val off = g.offsets
  private val adj = g.adj

  // The flow, readable by the tests of this package.
  private[core] val split = new Array[Boolean](g.n)
  private[core] val prev = Array.fill(g.n)(-1)

  // Scratch space reused across searches. Node a is reached by the current
  // search iff visit(a) == stamp; via(a) is the node it was reached from.
  private val via = new Array[Int](2 * g.n)
  private val queue = new Array[Int](2 * g.n)
  private val visit = new Array[Int](2 * g.n)
  private var stamp = 0
  // Vertices whose `prev` the last computation set (duplicates allowed).
  // Every vertex whose split arc carries a unit is one of them.
  private var touched = new Array[Int](16)
  private var touchedCount = 0
  // True iff the last search failed, so its stamps mark the residual-reachable set.
  private var cutReady = false

  private def newStamp(): Unit = {
    if (stamp == Int.MaxValue) { java.util.Arrays.fill(visit, 0); stamp = 0 }
    stamp += 1
  }

  /** The unit entering `x_in` now comes from `w_out`; records `x` for the next clear. */
  private def setPrev(x: Int, w: Int): Unit = {
    prev(x) = w
    if (touchedCount == touched.length) touched = java.util.Arrays.copyOf(touched, 2 * touchedCount)
    touched(touchedCount) = x; touchedCount += 1
  }

  /** Zero the flow through every vertex the previous computation touched. */
  private def clearFlow(): Unit = {
    var i = 0
    while (i < touchedCount) {
      val x = touched(i)
      prev(x) = -1; split(x) = false
      i += 1
    }
    touchedCount = 0
  }

  /** Residual BFS from `s`: stamps every node it reaches and fills `via`,
    * stopping as soon as `t`, an in-node, is reached. Returns true iff it was.
    */
  private def search(s: Int, t: Int): Boolean = {
    newStamp()
    visit(s) = stamp
    queue(0) = s
    var qh = 0; var qt = 1
    while (qh < qt) {
      val a = queue(qh); qh += 1
      val x = a >> 1
      // The split arc, forwards from x_in or backwards from x_out. It never
      // enters t: t's split arc carries no flow.
      if (((a & 1) == 1) == split(x) && visit(a ^ 1) != stamp) {
        visit(a ^ 1) = stamp; via(a ^ 1) = a
        queue(qt) = a ^ 1; qt += 1
      }
      if ((a & 1) == 0) {
        // Back along the arc that sends x_in its unit.
        val w = prev(x)
        if (w >= 0 && visit(2 * w + 1) != stamp) {
          visit(2 * w + 1) = stamp; via(2 * w + 1) = a
          queue(qt) = 2 * w + 1; qt += 1
        }
      } else {
        var i = off(x)
        val end = off(x + 1)
        while (i < end) {
          val b = 2 * adj(i)
          if (visit(b) != stamp) {
            visit(b) = stamp; via(b) = a
            if (b == t) return true
            queue(qt) = b; qt += 1
          }
          i += 1
        }
      }
    }
    false
  }

  /** Max flow from `u_out` to `v_in` for original vertices u≠v, stopping early
    * once the flow reaches `limit`. Starts from zero flow: the previous
    * computation's flow is cleared first.
    */
  def maxFlowUpTo(u: Int, v: Int, limit: Int): Int = {
    clearFlow()
    cutReady = false
    var f = 0
    // Seed: one unit through every common neighbour (sorted merge).
    var i = off(u)
    var j = off(v)
    val iEnd = off(u + 1)
    val jEnd = off(v + 1)
    while (i < iEnd && j < jEnd && f < limit) {
      val a = adj(i); val b = adj(j)
      if (a == b) {
        setPrev(a, u); split(a) = true
        f += 1; i += 1; j += 1
      } else if (a < b) i += 1
      else j += 1
    }
    val s = 2 * u + 1
    val t = 2 * v
    while (f < limit && search(s, t)) {
      // Each augmenting path has unit bottleneck (it crosses a split arc).
      // It enters t along a forward arc, which no `prev` records.
      var b = via(t)
      while (b != s) {
        val a = via(b)
        if (a == (b ^ 1)) split(b >> 1) = (b & 1) == 1 // along or back along a split arc
        else if ((b & 1) == 0) setPrev(b >> 1, a >> 1) // along a_out→b_in
        else prev(a >> 1) = -1 // back along b_out→a_in
        b = a
      }
      f += 1
    }
    cutReady = f < limit
    f
  }

  /** Vertices whose split arcs cross the residual min cut after a maxed-out
    * flow: {w : w_in reached, w_out not} by the search that failed. Only
    * valid right after `maxFlowUpTo` returned a value < its limit (i.e. the
    * flow is truly maximum); the residual-reachable set, and so the cut, is
    * the same for every maximum flow.
    */
  def minCutVertices(): Array[Int] = {
    require(cutReady, "minCutVertices needs a maximum flow below its limit")
    val cut = mutable.ArrayBuilder.make[Int]
    var w = 0
    while (w < g.n) {
      if (visit(2 * w) == stamp && visit(2 * w + 1) != stamp) cut += w
      w += 1
    }
    cut.result()
  }

  /** LOC-CUT (Algorithm 2, lines 12–17): Some(one minimum u–v vertex cut)
    * if κ(u,v) < k, else None. Adjacent (or identical) vertices are never
    * separable (Lemma 5).
    */
  def locCut(u: Int, v: Int, k: Int): Option[Array[Int]] =
    if (u == v || g.hasEdge(u, v) || maxFlowUpTo(u, v, k) >= k) None
    else Some(minCutVertices())
}

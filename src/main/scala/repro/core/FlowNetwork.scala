package repro.core

import repro.graph.AdjGraph
import scala.collection.mutable

/** Directed flow graph for local vertex-connectivity testing (Section 4.1),
  * held as flow state on the CSR of `g` with an implicit vertex split
  * (Even & Tarjan, SIAM J. Comput. 4(4), 1975).
  *
  * Every vertex `x` splits into `x_in = 2x` and `x_out = 2x+1` joined by an
  * arc of capacity 1, whose unit is `split(x)`; CSR slot `s` of `x`, holding
  * neighbour `w`, is the arc `x_out→w_in` with unbounded capacity and flow
  * `flow(s)`. Only split arcs can saturate, so every minimum cut maps 1:1 to
  * a vertex cut — Even's classic construction; the cut *value* is identical
  * to the paper's all-capacity-1 variant. The residual arcs are:
  *
  *  - from `x_in`: to `x_out` if `!split(x)`, and to `w_out` when the arc
  *    `w_out→x_in` (slot `twin(s)` of `w`) carries flow;
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
  * GLOBAL-CUT invocation, in one O(m) pass for `twin`; each flow computation
  * first clears only the slots the previous one touched.
  */
final class FlowNetwork(g: AdjGraph) {
  private val off = g.offsets
  private val adj = g.adj

  // twin(s): the slot of x in w's list, for slot s of x holding w.
  private val twin = new Array[Int](adj.length)
  g.foreachTwinSlots { (s, t) => twin(s) = t; twin(t) = s }

  // The flow, readable by the tests of this package.
  private[core] val flow = new Array[Int](adj.length)
  private[core] val split = new Array[Boolean](g.n)

  // Scratch space reused across searches. Node a is reached by the current
  // search iff visit(a) == stamp; via(a) is the slot it was reached along,
  // or −1 for its split arc.
  private val via = new Array[Int](2 * g.n)
  private val queue = new Array[Int](2 * g.n)
  private val visit = new Array[Int](2 * g.n)
  private var stamp = 0
  // Slots whose flow the last computation raised (duplicates allowed). A
  // vertex whose split arc carries a unit is the head of one of them.
  private var touched = new Array[Int](16)
  private var touchedCount = 0
  // True iff the last search failed, so its stamps mark the residual-reachable set.
  private var cutReady = false

  private def newStamp(): Unit = {
    if (stamp == Int.MaxValue) { java.util.Arrays.fill(visit, 0); stamp = 0 }
    stamp += 1
  }

  /** Push one unit along slot `s` and record it for the next clear. */
  private def push(s: Int): Unit = {
    flow(s) += 1
    if (touchedCount == touched.length) touched = java.util.Arrays.copyOf(touched, 2 * touchedCount)
    touched(touchedCount) = s; touchedCount += 1
  }

  /** Zero the flow on every slot the previous computation touched. */
  private def clearFlow(): Unit = {
    var i = 0
    while (i < touchedCount) {
      val s = touched(i)
      flow(s) = 0; split(adj(s)) = false
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
      val out = (a & 1) == 1
      // The split arc, forwards from x_in or backwards from x_out. It never
      // enters t: t's split arc carries no flow.
      if (out == split(x) && visit(a ^ 1) != stamp) {
        visit(a ^ 1) = stamp; via(a ^ 1) = -1
        queue(qt) = a ^ 1; qt += 1
      }
      val side = 1 - (a & 1) // x_out reaches w_in, x_in reaches w_out
      var i = off(x)
      val end = off(x + 1)
      while (i < end) {
        if (out || flow(twin(i)) > 0) {
          val b = 2 * adj(i) + side
          if (visit(b) != stamp) {
            visit(b) = stamp; via(b) = i
            if (b == t) return true
            queue(qt) = b; qt += 1
          }
        }
        i += 1
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
        push(i); split(a) = true; push(twin(j))
        f += 1; i += 1; j += 1
      } else if (a < b) i += 1
      else j += 1
    }
    val s = 2 * u + 1
    val t = 2 * v
    while (f < limit && search(s, t)) {
      // Each augmenting path has unit bottleneck (it crosses a split arc).
      var b = t
      while (b != s) {
        val i = via(b)
        if (i < 0) {
          split(b >> 1) = (b & 1) == 1
          b ^= 1
        } else {
          val x = adj(twin(i))
          if ((b & 1) == 0) { push(i); b = 2 * x + 1 } // along x_out→w_in
          else { flow(twin(i)) -= 1; b = 2 * x } // back along w_out→x_in
        }
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

package repro.core

import repro.graph.AdjGraph
import scala.collection.mutable

/** Directed flow graph for local vertex-connectivity testing (Section 4.1).
  *
  * Every vertex `v` of the input graph splits into `v_in = 2v` and
  * `v_out = 2v+1` joined by an arc of capacity 1; every undirected edge
  * `(u,v)` becomes arcs `u_out→v_in` and `v_out→u_in`. Adjacency arcs get
  * capacity `n` (≫ any cut of interest) so every minimum cut consists solely
  * of vertex-split arcs and therefore maps 1:1 to a vertex cut — Even's
  * classic construction; the cut *value* is identical to the paper's
  * all-capacity-1 variant.
  *
  * Max-flow is seeded, then finished by BFS augmentation (Edmonds–Karp), with
  * early termination at a caller-supplied bound `k`. Each common neighbour
  * `w` of `u` and `v` is a path `u_out→w_in→w_out→v_in`, vertex-disjoint
  * from the others (the paths behind Lemma 13's strong side-vertex test), so
  * a sorted merge of the two adjacency lists pushes `c` units at once. Each
  * augmenting path carries exactly one unit (it must traverse a capacity-1
  * vertex arc), so a LOC-CUT test costs an O(d(u)+d(v)) merge plus
  * (k−c)·O(m) BFS, and none when `c ≥ k`. The network is built once per
  * GLOBAL-CUT invocation; each flow computation first clears only the arcs
  * the previous one touched.
  */
final class FlowNetwork(g: AdjGraph) {
  private val numNodes = 2 * g.n
  private val numArcs = 2 * (g.n + 2 * g.m) // forward + residual twins

  // Arc storage: paired arcs (i, i^1); arc i^1 is the residual twin of i.
  // Vertex w's split arc w_in→w_out is arc 2w.
  private val arcTo = new Array[Int](numArcs)
  private val arcCap = new Array[Int](numArcs)
  private val arcFlow = new Array[Int](numArcs)
  private val head = Array.fill(numNodes)(-1) // head of per-node arc list
  private val next = new Array[Int](numArcs)

  // Per CSR slot i of `g` (vertex x, neighbour w = g.adj(i)): the arcs
  // x_out→w_in and w_out→x_in.
  private val outArc = new Array[Int](g.adj.length)
  private val inArc = new Array[Int](g.adj.length)

  private var arcCount = 0
  private val bigCap = math.max(2, g.n)

  private def addArc(from: Int, to: Int, cap: Int): Int = {
    val a = arcCount
    arcTo(a) = to; arcCap(a) = cap
    next(a) = head(from); head(from) = a
    arcTo(a + 1) = from; arcCap(a + 1) = 0
    next(a + 1) = head(to); head(to) = a + 1
    arcCount += 2
    a
  }

  locally {
    var v = 0
    while (v < g.n) {
      addArc(2 * v, 2 * v + 1, 1) // vertex-split arc, capacity 1
      v += 1
    }
    // Vertices are visited in index order and adjacency lists are sorted, so
    // the slot of v in w's list (v < w) is always the next unfilled one.
    val mirror = java.util.Arrays.copyOf(g.offsets, g.n)
    v = 0
    while (v < g.n) {
      var i = g.offsets(v)
      while (i < g.offsets(v + 1)) {
        val w = g.adj(i)
        // Add each undirected edge once; it contributes two directed arcs.
        if (v < w) {
          val j = mirror(w); mirror(w) += 1
          outArc(i) = addArc(2 * v + 1, 2 * w, bigCap)
          inArc(i) = addArc(2 * w + 1, 2 * v, bigCap)
          outArc(j) = inArc(i)
          inArc(j) = outArc(i)
        }
        i += 1
      }
      v += 1
    }
  }

  // Scratch space reused across flow computations. A node x is visited by
  // the current search iff visit(x) == stamp.
  private val parentArc = new Array[Int](numNodes)
  private val bfsQueue = new Array[Int](numNodes)
  private val visit = new Array[Int](numNodes)
  private var stamp = 0
  // Arcs whose flow the last computation changed (duplicates allowed).
  private var touched = new Array[Int](16)
  private var touchedCount = 0

  private def newStamp(): Unit = {
    if (stamp == Int.MaxValue) { java.util.Arrays.fill(visit, 0); stamp = 0 }
    stamp += 1
  }

  /** Push one unit along arc `a` and record it for the next clear. */
  private def push(a: Int): Unit = {
    arcFlow(a) += 1
    arcFlow(a ^ 1) -= 1
    if (touchedCount == touched.length) touched = java.util.Arrays.copyOf(touched, 2 * touchedCount)
    touched(touchedCount) = a; touchedCount += 1
  }

  /** Zero the flow on every arc the previous computation touched. */
  private def clearFlow(): Unit = {
    var i = 0
    while (i < touchedCount) {
      val a = touched(i)
      arcFlow(a) = 0; arcFlow(a ^ 1) = 0
      i += 1
    }
    touchedCount = 0
  }

  /** Residual BFS from `s`: stamps every node it reaches and fills
    * `parentArc`, stopping as soon as `t` is reached (`t = -1` searches
    * everything reachable). Returns true iff `t` was reached.
    */
  private def bfs(s: Int, t: Int): Boolean = {
    newStamp()
    visit(s) = stamp
    var qh = 0; var qt = 0
    bfsQueue(qt) = s; qt += 1
    while (qh < qt) {
      val u = bfsQueue(qh); qh += 1
      var a = head(u)
      while (a != -1) {
        val v = arcTo(a)
        if (visit(v) != stamp && arcCap(a) - arcFlow(a) > 0) {
          visit(v) = stamp
          parentArc(v) = a
          if (v == t) return true
          bfsQueue(qt) = v; qt += 1
        }
        a = next(a)
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
    var flow = 0
    // Seed: one unit through every common neighbour (sorted merge).
    var i = g.offsets(u)
    var j = g.offsets(v)
    val iEnd = g.offsets(u + 1)
    val jEnd = g.offsets(v + 1)
    while (i < iEnd && j < jEnd && flow < limit) {
      val a = g.adj(i); val b = g.adj(j)
      if (a == b) {
        push(outArc(i)); push(2 * a); push(inArc(j))
        flow += 1; i += 1; j += 1
      } else if (a < b) i += 1
      else j += 1
    }
    val s = 2 * u + 1
    val t = 2 * v
    while (flow < limit && bfs(s, t)) {
      // Each augmenting path has unit bottleneck (it crosses a vertex arc).
      var node = t
      while (node != s) {
        val a = parentArc(node)
        push(a)
        node = arcTo(a ^ 1)
      }
      flow += 1
    }
    flow
  }

  /** Vertices whose split arcs cross the residual min cut after a maxed-out
    * flow from `u_out` to `v_in`. Only valid right after `maxFlowUpTo`
    * returned a value < its limit (i.e. the flow is truly maximum); the
    * residual-reachable set, and so the cut, is the same for every maximum
    * flow.
    */
  def minCutVertices(u: Int): Array[Int] = {
    bfs(2 * u + 1, -1)
    // Adjacency arcs have capacity n and can never be saturated by a flow
    // < n, so every crossing arc is a vertex-split arc w_in→w_out.
    val cut = mutable.ArrayBuilder.make[Int]
    var w = 0
    while (w < g.n) {
      if (visit(2 * w) == stamp && visit(2 * w + 1) != stamp) cut += w
      w += 1
    }
    cut.result()
  }
}

package repro.core

import repro.graph.{AdjGraph, GraphOps}

/** Sparse certificate of k-vertex connectivity (Section 4.2, Theorem 5) and
  * side-groups (Section 5.2, Theorem 10), from one Nagamochi–Ibaraki scan.
  *
  * The scan (Nagamochi & Ibaraki, Algorithmica 7, 1992) keeps a count r(v)
  * per vertex and repeatedly scans the unscanned vertex with the largest r:
  * each edge to an unscanned neighbour y is labelled `++r(y)`. Label class
  * `F_i` = the edges labelled i. `r(y) = i−1` means y has been reached in
  * forests 1..i−1 but not yet in `F_i`; so "reached in `F_i`" is `r ≥ i`,
  * and the max-r rule scans a vertex already reached in `F_i` whenever one
  * exists, starting a new tree of `F_i` only when none does. Each `F_i` is
  * therefore a scan-first search forest of G − F_1 − … − F_{i−1}
  * (Cheriyan–Kao–Thurimella, SIAM J. Comput. 22, 1993), the forests the
  * paper's theorems are stated for:
  *
  *  - `F_1 ∪ … ∪ F_k` is a *strong* certificate (Theorem 5): for any vertex
  *    set S with |S| < k, the certificate minus S has the same connected
  *    components as G minus S, so a small vertex cut found on the
  *    certificate is a cut of G.
  *  - Any two vertices in the same component of `F_k` are local-k-connected
  *    (Theorem 10), so each component is a side-group; only groups with
  *    more than k vertices are useful for sweeping and are returned.
  *
  * Cost O(n + m) per call, in three steps:
  *  1. the scan, over a bucket queue on r capped at k (labels above k only
  *     mean "not in the certificate"). Each bucket b ≥ 1 is a lazy LIFO
  *     stack: a label event pushes its vertex on bucket r(y), and a pop
  *     skips entries whose vertex has since moved up or been scanned.
  *     Bucket 0 is a cursor over the indices in ascending order. So the
  *     scan takes the most recent live push of the top bucket: ties in r go
  *     to the vertex that reached its count last, and the first scan is
  *     vertex 0, so labels depend only on `g`;
  *  2. one pass over the slots that gives each edge's twin slot its label
  *     and copies the labelled slots into the certificate;
  *  3. a BFS over the label-k edges the scan recorded, at most n − 1 of
  *     them, built by `AdjGraph.fromArcs` into ascending lists, for the
  *     side-groups.
  * k separate scan-first searches, as in the paper, would cost O(k·m).
  */
object SparseCertificate {

  /** `graph` shares the local index space (and `ids`) of the input graph;
    * `sideGroups` holds local-index groups (components of F_k, size > k).
    */
  final case class Cert(graph: AdjGraph, sideGroups: Vector[Array[Int]])

  def compute(g: AdjGraph, k: Int): Cert = {
    val s = scan(g, k)
    Cert(fuse(g, s), sideGroups(g, k, s))
  }

  /** Forest index of every CSR slot of `g` (both slots of an edge carry the
    * same label): i in 1..k for an edge of `F_i`, 0 for an edge in no `F_i`
    * with i ≤ k.
    */
  private[core] def forestLabels(g: AdjGraph, k: Int): Array[Int] = {
    val s = scan(g, k)
    fuse(g, s)
    s.label
  }

  /** What the scan leaves: each labelled edge's label on the slot it was
    * labelled from (its twin still 0), the number of labelled edges, and
    * the `nk` label-k edges as pairs `(kEdges(2i), kEdges(2i + 1))`.
    */
  private final class Scan(val label: Array[Int], val labelled: Int, val kEdges: Array[Int], val nk: Int)

  private def scan(g: AdjGraph, k: Int): Scan = {
    require(k >= 1, s"k must be >= 1, got $k")
    val n = g.n
    val off = g.offsets
    val adj = g.adj
    val label = new Array[Int](adj.length)
    val kEdges = new Array[Int](2 * math.max(n - 1, 0))
    var nk = 0

    // r(v) = Int.MaxValue marks a scanned vertex, so `r(y) < k` alone
    // decides whether a slot is labelled.
    val r = new Array[Int](n)
    // Stack entries: the vertex at 2e, the entry below it at 2e + 1. Each
    // label event pushes one, and a vertex takes at most k of them.
    val stack = new Array[Int](2 * math.min(adj.length / 2L, k.toLong * n).toInt)
    val head = new Array[Int](k + 1)
    java.util.Arrays.fill(head, -1)
    var entries = 0
    var zero = 0
    var top = 0
    var left = n
    while (left > 0) {
      var x = -1
      while (x < 0) {
        if (top == 0) {
          while (r(zero) != 0) zero += 1
          x = zero
        } else {
          var e = head(top)
          while (e >= 0 && r(stack(2 * e)) != top) e = stack(2 * e + 1)
          if (e >= 0) { x = stack(2 * e); head(top) = stack(2 * e + 1) }
          else { head(top) = -1; top -= 1 }
        }
      }
      r(x) = Int.MaxValue
      left -= 1
      var s = off(x)
      val end = off(x + 1)
      while (s < end) {
        val y = adj(s)
        val ry = r(y)
        if (ry < k) {
          val l = ry + 1
          r(y) = l
          label(s) = l
          stack(2 * entries) = y; stack(2 * entries + 1) = head(l); head(l) = entries
          entries += 1
          if (l > top) top = l
          if (l == k) { kEdges(2 * nk) = x; kEdges(2 * nk + 1) = y; nk += 1 }
        }
        s += 1
      }
    }
    new Scan(label, entries, kEdges, nk)
  }

  /** One pass over the slots: gives each twin slot its label and copies the
    * labelled slots, in slot order so lists stay sorted, into the
    * certificate. For slot s of x holding w > x, the slot of x in w's list
    * is cursor(w): lists are sorted and x runs upwards, so w meets its
    * smaller neighbours in list order. At most one of the two slots holds a
    * label; the other is still 0.
    */
  private def fuse(g: AdjGraph, sc: Scan): AdjGraph = {
    val n = g.n
    val off = g.offsets
    val adj = g.adj
    val label = sc.label
    val cursor = java.util.Arrays.copyOf(off, n)
    val certOffsets = new Array[Int](n + 1)
    val certAdj = new Array[Int](2 * sc.labelled)
    var c = 0
    var x = 0
    while (x < n) {
      var s = off(x)
      val end = off(x + 1)
      while (s < end) {
        val w = adj(s)
        if (w > x) {
          val t = cursor(w)
          val l = label(s) + label(t)
          label(s) = l; label(t) = l
          cursor(w) = t + 1
        }
        if (label(s) > 0) { certAdj(c) = w; c += 1 }
        s += 1
      }
      certOffsets(x + 1) = c
      x += 1
    }
    AdjGraph.unsafe(g.ids, certOffsets, certAdj)
  }

  /** Components of F_k with more than k members, as `connectedComponents`
    * gives them on the CSR of the label-k edges, whose lists ascend: groups
    * and their members come in the order of a BFS over the label-k slots
    * from roots in ascending order.
    */
  private def sideGroups(g: AdjGraph, k: Int, sc: Scan): Vector[Array[Int]] =
    // A tree with more than k vertices has at least k edges.
    if (sc.nk < k) Vector.empty
    else GraphOps.connectedComponents(AdjGraph.fromArcs(g.ids, sc.kEdges, 2 * sc.nk)).filter(_.length > k)
}

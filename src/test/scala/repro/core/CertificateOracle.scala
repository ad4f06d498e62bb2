package repro.core

import repro.graph.AdjGraph

/** Reference sparse certificate for `SparseCertificateSpec`: the
  * doubly-linked-bucket scan with separate twin, count, copy and side-group
  * passes, kept unchanged as the oracle the one-scan `SparseCertificate` must
  * equal array for array.
  */
object CertificateOracle {

  def compute(g: AdjGraph, k: Int): SparseCertificate.Cert = {
    require(k >= 1, s"k must be >= 1, got $k")
    val n = g.n
    val off = g.offsets
    val adj = g.adj
    val label = forestLabels(g, k)

    // Certificate: the labelled slots in slot order, so lists stay sorted.
    val certOffsets = new Array[Int](n + 1)
    var s = 0
    var v = 0
    while (v < n) {
      certOffsets(v + 1) = certOffsets(v)
      while (s < off(v + 1)) { if (label(s) > 0) certOffsets(v + 1) += 1; s += 1 }
      v += 1
    }
    val certAdj = new Array[Int](certOffsets(n))
    var c = 0
    s = 0
    while (s < adj.length) {
      if (label(s) > 0) { certAdj(c) = adj(s); c += 1 }
      s += 1
    }

    // Side-groups: components of F_k with more than k members, by BFS over
    // the label-k slots. Each BFS fills one segment of `queue`: its group.
    val seen = new Array[Boolean](n)
    val queue = new Array[Int](n)
    val groups = Vector.newBuilder[Array[Int]]
    var qt = 0
    var root = 0
    while (root < n) {
      if (!seen(root)) {
        val start = qt
        seen(root) = true
        queue(qt) = root; qt += 1
        var qh = start
        while (qh < qt) {
          val x = queue(qh); qh += 1
          var t = off(x)
          while (t < off(x + 1)) {
            val y = adj(t)
            if (label(t) == k && !seen(y)) { seen(y) = true; queue(qt) = y; qt += 1 }
            t += 1
          }
        }
        if (qt - start > k) groups += java.util.Arrays.copyOfRange(queue, start, qt)
      }
      root += 1
    }
    SparseCertificate.Cert(AdjGraph.unsafe(g.ids, certOffsets, certAdj), groups.result())
  }

  /** Forest index of every CSR slot of `g` (both slots of an edge carry the
    * same label): i in 1..k for an edge of `F_i`, 0 for an edge in no `F_i`
    * with i ≤ k. Ties in r go to the vertex that reached its count last,
    * and the first scan is vertex 0, so labels depend only on `g`.
    */
  def forestLabels(g: AdjGraph, k: Int): Array[Int] = {
    val n = g.n
    val off = g.offsets
    val adj = g.adj
    val label = new Array[Int](adj.length)

    // Bucket queue: doubly linked lists of unscanned vertices per r in 0..k.
    val r = new Array[Int](n)
    val next = new Array[Int](n)
    val prev = new Array[Int](n)
    val head = Array.fill(k + 1)(-1)
    def push(v: Int): Unit = {
      val b = r(v)
      prev(v) = -1; next(v) = head(b)
      if (head(b) >= 0) prev(head(b)) = v
      head(b) = v
    }
    def unlink(v: Int): Unit = {
      if (prev(v) >= 0) next(prev(v)) = next(v) else head(r(v)) = next(v)
      if (next(v) >= 0) prev(next(v)) = prev(v)
    }
    val scanned = new Array[Boolean](n)
    var v = n - 1
    while (v >= 0) { push(v); v -= 1 }

    var top = 0
    var left = n
    while (left > 0) {
      while (head(top) < 0) top -= 1
      val x = head(top)
      unlink(x)
      scanned(x) = true
      left -= 1
      var s = off(x)
      while (s < off(x + 1)) {
        val y = adj(s)
        if (!scanned(y) && r(y) < k) {
          unlink(y); r(y) += 1; push(y)
          if (r(y) > top) top = r(y)
          label(s) = r(y)
        }
        s += 1
      }
    }

    // Twin slots: at most one of the two holds a label; the other is still 0.
    // For slot s of x holding w > x, the slot of x in w's list is cursor(w):
    // lists are sorted and x runs upwards, so w meets its smaller neighbours
    // in list order.
    val cursor = java.util.Arrays.copyOf(off, n)
    var x = 0
    while (x < n) {
      var s = off(x)
      while (s < off(x + 1)) {
        val w = adj(s)
        if (w > x) {
          val t = cursor(w)
          val l = math.max(label(s), label(t))
          label(s) = l; label(t) = l
          cursor(w) += 1
        }
        s += 1
      }
      x += 1
    }
    label
  }
}

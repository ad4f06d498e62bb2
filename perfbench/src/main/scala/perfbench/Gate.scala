package perfbench

import java.security.MessageDigest
import repro.graph.AdjGraph

/** A graph's canonical summary (see `Gate.graphRef`). */
final case class GraphRef(n: Int, m: Int, sha256: String) {
  override def toString: String = s"n=$n m=$m sha256=${sha256.take(12)}…"
}

/** The output gate applied to every query's k-VCC set. */
object Gate {

  /** A k-VCC set in canonical form: each component's generator ids, sorted;
    * components ordered by size, then lexicographically. The canonical form
    * does not depend on the run seed's relabelling.
    */
  def canonical(input: Input, sets: Seq[Array[Long]]): Vector[Vector[Long]] =
    sets.map(s => s.map(input.originalId).sorted.toVector)
      .sortWith { (a, b) =>
        if (a.length != b.length) a.length < b.length
        else a.iterator.zip(b.iterator).find { case (x, y) => x != y }.exists { case (x, y) => x < y }
      }
      .toVector

  /** SHA-256 of the canonical form, hex. */
  def digest(canon: Vector[Vector[Long]]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    canon.foreach { c => md.update(c.mkString("", ",", ";").getBytes("US-ASCII")) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** The graph the program built, in canonical form: its vertex and edge
    * counts and the SHA-256 of every vertex's neighbour list, all in
    * generator ids, vertices in ascending order. Like `canonical`, it does not
    * depend on the run seed's relabelling; it changes if an edge is dropped,
    * merged or attached to the wrong vertex.
    */
  def graphRef(input: Input, g: AdjGraph): GraphRef = {
    val original = g.ids.map(input.originalId)
    val order = (0 until g.n).sortBy(original(_)).toArray
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8 * (g.maxDegree + 2))
    order.foreach { v =>
      val nbrs = new Array[Long](g.degree(v))
      var i = 0
      g.foreachNeighbor(v) { w => nbrs(i) = original(w); i += 1 }
      java.util.Arrays.sort(nbrs)
      buf.clear()
      buf.putLong(original(v)).putLong(nbrs.length.toLong)
      nbrs.foreach(buf.putLong)
      md.update(buf.array, 0, buf.position())
    }
    GraphRef(g.n, g.m, md.digest().map(b => f"${b & 0xff}%02x").mkString)
  }

  /** Violations of the cheap invariants every k-VCC set satisfies, checked
    * against the input graph `g` (empty when the set passes):
    *   - every component has more than k vertices;
    *   - every component's induced subgraph has minimum degree ≥ k;
    *   - two components share fewer than k vertices;
    *   - no component contains another.
    * `sets` hold sorted ids of `g`.
    */
  def violations(g: AdjGraph, k: Int, sets: Vector[Array[Long]]): Vector[String] = {
    val out = Vector.newBuilder[String]
    val member = new Array[Boolean](g.n)
    sets.zipWithIndex.foreach { case (s, i) =>
      if (s.length <= k) out += s"component $i has ${s.length} vertices, not more than k=$k"
      val local = s.map { id =>
        val v = java.util.Arrays.binarySearch(g.ids, id)
        require(v >= 0, s"component $i holds vertex $id, which is not in the input graph")
        v
      }
      local.foreach(member(_) = true)
      var minDeg = Int.MaxValue
      local.foreach { v =>
        var d = 0
        g.foreachNeighbor(v)(w => if (member(w)) d += 1)
        minDeg = math.min(minDeg, d)
      }
      local.foreach(member(_) = false)
      if (local.nonEmpty && minDeg < k) out += s"component $i has minimum degree $minDeg < k=$k"
    }
    var i = 0
    while (i < sets.length) {
      var j = i + 1
      while (j < sets.length) {
        val common = overlap(sets(i), sets(j))
        if (common == math.min(sets(i).length, sets(j).length))
          out += s"components $i and $j: one contains the other"
        else if (common >= k) out += s"components $i and $j share $common vertices, not fewer than k=$k"
        j += 1
      }
      i += 1
    }
    out.result()
  }

  /** |a ∩ b| for sorted arrays. */
  private def overlap(a: Array[Long], b: Array[Long]): Int = {
    var i = 0; var j = 0; var c = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { c += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    c
  }
}

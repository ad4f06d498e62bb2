package perfbench

import repro.gen.Datasets
import scala.util.Random

/** A workload input: the dataset substitute from `Datasets.generate`, with its
  * vertex ids relabelled by a permutation drawn from the run seed and its
  * edges in a seeded order. Every seed gives an isomorphic graph, so the k-VCC
  * sets are the same up to relabelling while the order in which the program
  * meets vertices and edges changes.
  */
final class Input(val edges: Vector[(Long, Long)], original: Array[Long]) {

  /** The generator's id of relabelled vertex `id`. */
  def originalId(id: Long): Long = original(id.toInt)
}

object Input {

  def generate(spec: Datasets.DatasetSpec, scale: Double, seed: Long): Input = {
    val base = Datasets.generate(spec, scale)
    var maxId = 0L
    base.foreach { case (a, b) => maxId = math.max(maxId, math.max(a, b)) }
    val rnd = new Random(seed)
    // Fisher–Yates: `perm(old) = new`, `original(new) = old`.
    val perm = Array.tabulate((maxId + 1).toInt)(_.toLong)
    var i = perm.length - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    val original = new Array[Long](perm.length)
    i = 0
    while (i < perm.length) { original(perm(i).toInt) = i.toLong; i += 1 }
    val relabelled = base.map { case (a, b) => (perm(a.toInt), perm(b.toInt)) }
    new Input(rnd.shuffle(relabelled), original)
  }
}

package perfbench

import repro.core.{KVCCEnumerator, Variant}
import repro.graph.AdjGraph
import repro.spark.{EdgeOps, KVCCSpark}
import java.io.File

/** Records the reference entries of one workload at one dataset seed; entries
  * already present are kept and not recomputed.
  *
  *   - For a local workload, the summary of the graph `AdjGraph.fromEdges`
  *     builds, recorded only when that graph has exactly the edge list's
  *     distinct non-loop edges.
  *   - For each k, the k-VCC digest, recorded only when all four local
  *     variants and `KVCCSpark` return the same set and it passes the
  *     invariants.
  */
object Record {

  def run(s: Settings): Int = {
    val w = s.workload
    val spec = w.spec.copy(seed = s.datasetSeed)
    val input = Input.generate(spec, w.scale, s.seed)
    val g = AdjGraph.fromEdges(input.edges)
    val digests = new Digests(new File(s.reference, "digests.tsv"))
    val graphs = new GraphRefs(new File(s.reference, "graphs.tsv"))

    if (w.path != Path.Spark && graphs.get(w.name, s.datasetSeed).isEmpty) {
      val distinct = input.edges.iterator.filter { case (a, b) => a != b }
        .map { case (a, b) => if (a < b) (a, b) else (b, a) }.toSet
      val index = g.ids.zipWithIndex.toMap
      val endpoints = distinct.flatMap { case (a, b) => Seq(a, b) }
      require(g.m == distinct.size && g.n == endpoints.size &&
        distinct.forall { case (a, b) => g.hasEdge(index(a), index(b)) },
        s"${w.name}: AdjGraph.fromEdges does not hold the edge list's ${distinct.size} distinct edges")
      val ref = Gate.graphRef(input, g)
      graphs.add(w.name, s.datasetSeed, ref)
      println(s"[perfbench] ${w.name} dataset_seed=${s.datasetSeed} graph $ref matches the edge list")
    }

    val todo = w.ks.filter(k => digests.get(w.name, s.datasetSeed, k).isEmpty)
    if (todo.nonEmpty) {
      val scratch = new File(s.results, "tmp")
      scratch.mkdirs()
      val spark = Sparks.start(scratch)
      try todo.foreach { k =>
        val local = Variant.all.map(v => v -> KVCCEnumerator.enumerate(g, k, v).map(_.sortedIds))
        val viaSpark = KVCCSpark.enumerate(EdgeOps.toDF(spark, input.edges), k, Variant.Star).map(_.toArray)
        val canon = Gate.canonical(input, viaSpark)
        local.foreach { case (v, sets) =>
          require(Gate.canonical(input, sets) == canon, s"${w.name} k=$k: ${v.name} disagrees with KVCCSpark")
        }
        val violations = Gate.violations(g, k, viaSpark)
        require(violations.isEmpty, s"${w.name} k=$k: ${violations.mkString("; ")}")
        digests.add(w.name, s.datasetSeed, k, canon.length, Gate.digest(canon))
        println(s"[perfbench] ${w.name} dataset_seed=${s.datasetSeed} k=$k: ${canon.length} k-VCCs, " +
          s"all variants and KVCCSpark agree")
      } finally spark.stop()
    }
    0
  }
}

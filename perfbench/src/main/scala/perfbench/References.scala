package perfbench

import java.io.{File, FileWriter, PrintWriter}
import scala.collection.mutable
import scala.io.Source

/** Reference k-VCC digests, one per (workload, dataset seed, k). A digest is
  * recorded only after all four variants and `KVCCSpark` agreed on the set.
  * Tab-separated: workload, dataset_seed, k, components, sha256.
  */
final class Digests(file: File) {
  private val rows = mutable.LinkedHashMap.empty[(String, Long, Int), (Int, String)]
  Table.read(file).foreach { f => rows((f(0), f(1).toLong, f(2).toInt)) = (f(3).toInt, f(4)) }

  def get(workload: String, datasetSeed: Long, k: Int): Option[(Int, String)] =
    rows.get((workload, datasetSeed, k))

  def add(workload: String, datasetSeed: Long, k: Int, components: Int, digest: String): Unit =
    if (!rows.contains((workload, datasetSeed, k))) {
      rows((workload, datasetSeed, k)) = (components, digest)
      Table.append(file, "workload\tdataset_seed\tk\tcomponents\tsha256",
        Seq(workload, datasetSeed, k, components, digest).mkString("\t"))
    }
}

/** Reference summaries of the graph `AdjGraph.fromEdges` builds from each
  * workload's edge list, one per (workload, dataset seed). A summary is
  * recorded only after the graph was checked against the edge list itself.
  * Tab-separated: workload, dataset_seed, n, m, sha256.
  */
final class GraphRefs(file: File) {
  private val rows = mutable.LinkedHashMap.empty[(String, Long), GraphRef]
  Table.read(file).foreach { f => rows((f(0), f(1).toLong)) = GraphRef(f(2).toInt, f(3).toInt, f(4)) }

  def get(workload: String, datasetSeed: Long): Option[GraphRef] = rows.get((workload, datasetSeed))

  def add(workload: String, datasetSeed: Long, ref: GraphRef): Unit =
    if (!rows.contains((workload, datasetSeed))) {
      rows((workload, datasetSeed)) = ref
      Table.append(file, "workload\tdataset_seed\tn\tm\tsha256",
        Seq(workload, datasetSeed, ref.n, ref.m, ref.sha256).mkString("\t"))
    }
}

/** The ledger of exact counters, one row per (workload, dataset seed, run
  * seed, k, variant, kind). `kind` is `kvcc` (the `KvccStats` fields) or `replay`
  * (the traced replay's pieces, largest piece, depth and dedup hits).
  * Tab-separated, the values comma-separated.
  */
final class Counters(file: File) {
  private val rows = mutable.LinkedHashMap.empty[Seq[String], Vector[Long]]
  Table.read(file).foreach { f => rows(f.take(6).toSeq) = f(6).split(",").map(_.toLong).toVector }

  def get(key: Seq[String]): Option[Vector[Long]] = rows.get(key)

  def add(key: Seq[String], values: Vector[Long]): Unit =
    if (!rows.contains(key)) {
      rows(key) = values
      Table.append(file, "workload\tdataset_seed\tseed\tk\tvariant\tkind\tvalues",
        (key :+ values.mkString(",")).mkString("\t"))
    }
}

object Counters {
  def key(workload: String, datasetSeed: Long, seed: Long, q: Query, kind: String): Seq[String] =
    Seq(workload, datasetSeed.toString, seed.toString, q.k.toString, q.variant.name, kind)

  /** The `kvcc` counters, in file order. */
  val kvccFields: Vector[String] = Vector(
    "globalcut_calls", "cuts", "flow_tests", "phase1_processed", "phase1_tested",
    "pruned_ns1", "pruned_ns2", "pruned_gs")

  def kvcc(s: repro.core.KvccStats): Vector[Long] = Vector(
    s.globalCutCalls, s.partitions, s.flowTests, s.phase1Processed, s.phase1Tested,
    s.prunedNs1, s.prunedNs2, s.prunedGs)

  def replay(c: Replay.Counters): Vector[Long] =
    Vector(c.pieces, c.largestPiece.toLong, c.depthMax.toLong, c.dedupHits)
}

private object Table {
  def read(file: File): Vector[Array[String]] =
    if (!file.exists()) Vector.empty
    else {
      val src = Source.fromFile(file, "UTF-8")
      try src.getLines().filter(l => l.nonEmpty && !l.startsWith("#") && !l.startsWith("workload\t"))
        .map(_.split("\t")).toVector
      finally src.close()
    }

  def append(file: File, header: String, line: String): Unit = {
    val fresh = !file.exists()
    Option(file.getParentFile).foreach(_.mkdirs())
    val w = new PrintWriter(new FileWriter(file, true))
    try {
      if (fresh) w.println(header)
      w.println(line)
    } finally w.close()
  }
}

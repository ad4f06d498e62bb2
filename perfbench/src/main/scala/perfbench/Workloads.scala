package perfbench

import repro.core.Variant
import repro.gen.Datasets

/** How a workload's queries reach the program. */
sealed abstract class Path(val name: String)

object Path {
  /** Local kernel; a pass builds the graph once, then runs every query on it. */
  case object LocalShared extends Path("local, graph built once per pass")
  /** Local kernel; every query builds its own graph from the edge list. */
  case object LocalPerQuery extends Path("local, graph built inside the query")
  /** `EdgeOps.toDF` → `KVCCSpark.enumerate` → collect. */
  case object Spark extends Path("spark")
}

/** One benchmark workload: a dataset substitute at a scale, and the fixed
  * query list one pass runs. A query is (edge list, k, variant) → k-VCC set.
  */
final case class Workload(
    name: String,
    dataset: String,
    scale: Double,
    ks: Vector[Int],
    variants: Vector[Variant],
    path: Path) {

  def spec: Datasets.DatasetSpec = Datasets.byName(dataset)

  /** The pass's queries, variant-major. */
  def queries: Vector[Query] = for (v <- variants; k <- ks) yield Query(k, v)
}

final case class Query(k: Int, variant: Variant) {
  override def toString: String = s"k=$k ${variant.name}"
}

object Workloads {

  val all: Vector[Workload] = Vector(
    Workload("local-cit-sweep", "Cit", 1.0 / 32, Vector(20, 30, 40), Vector(Variant.Star), Path.LocalShared),
    Workload("local-cnr-variants", "Cnr", 1.0 / 32, Vector(20, 30, 40), Variant.all, Path.LocalShared),
    Workload("spark-cit-k20", "Cit", 1.0 / 32, Vector(20), Vector(Variant.Star), Path.Spark),
    Workload("ingest-cit-large", "Cit", 1.0 / 8, Vector(80), Vector(Variant.Star), Path.LocalPerQuery),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** Variant names as they appear in metric names (`*` is not allowed there). */
  def slug(v: Variant): String = v.name.toLowerCase.replace("*", "-star")
}

package repro.bench

import repro.SparkSpec
import repro.exp.{CountsExp, ExpConfig}

/** Figure-11-shaped experiment: number of k-VCCs per dataset and k, produced
  * by the fully distributed pipeline (block k-core + forest CC + executor-side
  * enumeration). Persists bench/results/fig11_counts.txt.
  */
class CountsBench extends SparkSpec {

  test("Fig 11 shape: k-VCC counts decrease as k grows") {
    val rows = CountsExp.runAndEmit(spark)
    assert(rows.nonEmpty)
    val byDataset = rows.groupBy(_.name)
    assert(byDataset.keySet == ExpConfig.datasets.map(_.name).toSet)
    byDataset.foreach { case (name, rs) =>
      val sorted = rs.sortBy(_.k)
      assert(sorted.head.count > 0, s"$name: no k-VCCs at k=${sorted.head.k}")
      // Monotone-ish decrease: the count at k=40 is below the count at k=20.
      assert(sorted.last.count <= sorted.head.count,
        s"$name: count grew from ${sorted.head.count} (k=${sorted.head.k}) " +
          s"to ${sorted.last.count} (k=${sorted.last.k})")
      // Overlap exists somewhere (the planted cuts are duplicated).
      assert(rs.map(_.dup).sum >= 0)
    }
  }
}

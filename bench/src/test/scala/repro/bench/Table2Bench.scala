package repro.bench

import repro.SparkSpec
import repro.exp.{ExpConfig, Table2}

/** Paper Table 2 (PROPORTION FOR DIFFERENT RULES): per-rule pruning fractions
  * of VCCE*'s phase-1 loop, averaged over k ∈ {20,25,30,35,40}. Persists
  * bench/results/table2_sweep_rules.txt.
  */
class Table2Bench extends SparkSpec {

  test("Table 2: sweep-rule proportions") {
    val rows = Table2.runAndEmit()
    assert(rows.length == ExpConfig.datasets.length)
    rows.foreach { r =>
      Seq(r.ns1, r.ns2, r.gs, r.nonPru).foreach(x => assert(x >= 0 && x <= 1, r.name))
      assert(r.ns1 + r.ns2 + r.gs + r.nonPru <= 1.0 + 1e-9, r.name)
      // The paper's headline: the sweeps prune a large share of phase-1
      // vertices on every dataset (45%+ even on its worst dataset, ND).
      val pruned = r.ns1 + r.ns2 + r.gs
      assert(pruned > 0.3, s"${r.name}: only ${(pruned * 100).round}% pruned")
    }
  }
}

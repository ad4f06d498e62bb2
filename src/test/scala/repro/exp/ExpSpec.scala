package repro.exp

import repro.SparkSpec

/** Smoke tests for the table harnesses at tiny scale (full-scale runs live in
  * bench/; see EXPERIMENTS.md).
  */
class ExpSpec extends SparkSpec {

  private val tinyScale = 1.0 / 1024

  test("Table 1 harness computes stats for all seven datasets") {
    val rows = Table1.run(spark, tinyScale)
    assert(rows.length == 7)
    rows.foreach { r =>
      assert(r.stats.n > 0 && r.stats.m > 0)
      assert(r.stats.density > 0)
      assert(r.stats.maxDegree >= 60) // hub injection floor
    }
    val rendered = Table1.render(rows, tinyScale)
    assert(rendered.contains("Stanford") && rendered.contains("Cit"))
    assert(rendered.contains("3774768")) // paper |V| of Cit appears alongside
  }

  test("Table 2 harness produces proportions in [0,1] that sum to <= 1") {
    val rows = Table2.run(tinyScale)
    assert(rows.length == 7)
    rows.foreach { r =>
      Seq(r.ns1, r.ns2, r.gs, r.nonPru).foreach(x => assert(x >= 0 && x <= 1))
      assert(r.ns1 + r.ns2 + r.gs + r.nonPru <= 1.0 + 1e-9)
    }
    val rendered = Table2.render(rows, tinyScale)
    assert(rendered.contains("NS_1") && rendered.contains("Non-Pru"))
  }

  test("Table 2 paper reference values are the published ones") {
    assert(Table2.paper("DBLP") == ((67, 21, 4, 8)))
    assert(Table2.paper("Cnr") == ((11, 32, 48, 9)))
    assert(!Table2.paper.contains("Youtube"))
  }

  test("Timing harness runs all four variants") {
    val rows = TimingExp.run(tinyScale, kValues = Seq(20))
    assert(rows.length == 7)
    rows.foreach { r =>
      assert(r.millisByVariant.keySet == Set("VCCE", "VCCE-N", "VCCE-G", "VCCE*"))
      r.millisByVariant.values.foreach(t => assert(t >= 0))
    }
    assert(TimingExp.render(rows, tinyScale).contains("VCCE*"))
  }

  test("Effectiveness harness: k-VCCs are the most cohesive model") {
    val rows = EffectivenessExp.run(kValues = Seq(10, 14))
    val byKey = rows.map(r => (r.k, r.model) -> r).toMap
    for (k <- Seq(10, 14)) {
      val core = byKey((k, "k-core"))
      val vcc = byKey((k, "k-VCC"))
      assert(vcc.count > 0, s"no $k-VCCs in the fixture")
      // The paper's headline effectiveness shape.
      assert(vcc.avgDensity >= core.avgDensity - 1e-9, s"k=$k density")
      assert(vcc.avgDiam <= core.avgDiam + 1e-9, s"k=$k diameter")
    }
    assert(EffectivenessExp.render(rows).contains("k-ECC"))
  }

  test("table renderer aligns columns") {
    val s = Tables.render("T", Seq("a", "bbb"), Seq(Seq("xx", "y"), Seq("1", "22222")))
    val lines = s.linesIterator.toVector
    assert(lines.head == "== T ==")
    assert(lines.drop(1).map(_.length).distinct.size == 1)
  }

  test("ExpConfig defaults") {
    assert(ExpConfig.kValues == Vector(20, 25, 30, 35, 40))
    assert(ExpConfig.datasets.length == 7)
  }
}

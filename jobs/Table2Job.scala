package repro.jobs

import repro.exp.Table2

/** Entrypoint for paper Table 2 (sweep-rule proportions, local kernel).
  * Env: REPRO_SCALE, REPRO_DATASETS.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    Table2.runAndEmit()
  }
}

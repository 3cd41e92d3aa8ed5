package repro.bench

import org.apache.spark.sql.SparkSession

import repro.harness.{Experiments, QueryRun, Workbench}
import repro.workload.JobLite

/** Shared bench fixture: one Workbench at bench scale plus the per-query runs
  * of every simulated configuration, computed once per JVM and reused by every
  * bench. Scale is REPRO_BENCH_SF (default 0.1: 47,385 rows in all). The
  * benches print their tables through [[repro.harness.Report]], with the
  * paper's numbers alongside, for transcription into EXPERIMENTS.md.
  */
object Bench {
  val RealTop20: Boolean = sys.env.getOrElse("REPRO_REAL", "1") == "1"

  def wb(spark: SparkSession): Workbench = Workbench(spark, Experiments.SF)

  private var cached: Vector[QueryRun] = null

  /** The 113 per-query runs (computed once). */
  def results(spark: SparkSession): Vector[QueryRun] = synchronized {
    if (cached == null) cached = Experiments.runAll(wb(spark), JobLite.all)
    cached
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.harness.{Experiments, Report, Workbench}
import repro.workload.JobLite

/** spark-submit entrypoint for the paper's tables and figures:
  *
  *   spark-submit --class repro.jobs.Main repro.jar <table> [sf]
  *
  * `<table>` is one of I, II, III, IV/V, VI, fig1, fig2, fig7, fig8. It prints
  * the same table as the corresponding bench suite (bench/src/test/scala/repro/bench);
  * sf defaults to REPRO_BENCH_SF, else 0.1.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-jobs")
      .getOrCreate()
    lazy val wb = Workbench(spark, args.lift(1).fold(Experiments.SF)(_.toDouble))
    lazy val res = Experiments.runAll(wb, JobLite.all)
    val table = args.headOption.getOrElse("") match {
      case "I"    => Report.tableI(res)
      case "II"   => Report.tableII(res)
      case "III"  => Report.tableIII
      case "IV/V" => Report.tableIVV(wb)
      case "VI"   => Report.tableVI(res)
      case "fig1" => Report.fig1(Experiments.top20(res, Workbench(spark, Experiments.RealSF)))
      case "fig2" => Report.fig2(res)
      case "fig7" => Report.fig7(res)
      case "fig8" => Report.fig8(res)
      case other  => sys.error(s"unknown table '$other': expected I, II, III, IV/V, VI, fig1, fig2, fig7 or fig8")
    }
    table.print()
  }
}

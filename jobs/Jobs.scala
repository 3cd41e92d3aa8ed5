package repro.jobs

import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.config.Configurator
import org.apache.logging.log4j.core.config.builder.api.ConfigurationBuilderFactory
import org.apache.spark.sql.SparkSession

import repro.core.data.LocalDB
import repro.harness.{Experiments, Report, Workbench}
import repro.imdb.ImdbLite
import repro.workload.JobLite

/** spark-submit entrypoint for the paper's tables and figures:
  *
  *   spark-submit --class repro.jobs.Main repro.jar <table> [sf]
  *
  * `<table>` is one of I, II, III, IV/V, VI, fig1, fig2, fig7, fig8. It prints
  * the same table as the corresponding bench suite (bench/src/test/scala/repro/bench);
  * sf defaults to REPRO_BENCH_SF, else 0.1. As in the test JVMs, Spark logs
  * at WARN to stderr and starts no web UI.
  *
  *   spark-submit --class repro.jobs.Main repro.jar digest [sf] [seed]
  *
  * prints the SHA-256 digest of the IMDB-lite data at (sf, seed), seed 42 by
  * default ([[LocalDB.digest]]), without starting Spark: two machines with
  * equal digests generate equal data.
  */
object Main {
  def main(args: Array[String]): Unit =
    if (args.headOption.contains("digest")) {
      val sf   = args.lift(1).fold(Experiments.SF)(_.toDouble)
      val seed = args.lift(2).fold(42L)(_.toLong)
      val db   = ImdbLite.generate(ImdbLite.Config(sf, seed))
      println(s"database sf=$sf data-seed=$seed digest=${LocalDB.digest(db)}")
    } else paperTable(args)

  private def paperTable(args: Array[String]): Unit = {
    quietLogging()
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-jobs")
      .config("spark.ui.enabled", "false")
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
      case other  => sys.error(s"unknown table '$other': expected I, II, III, IV/V, VI, fig1, fig2, fig7, fig8 or digest")
    }
    table.print()
  }

  /** src/test/resources/log4j2.properties, configured before Spark starts so
    * that Spark keeps it instead of loading its INFO defaults.
    */
  private def quietLogging(): Unit = {
    val b = ConfigurationBuilderFactory.newConfigurationBuilder()
    b.add(b.newAppender("console", "Console").addAttribute("target", "SYSTEM_ERR")
      .add(b.newLayout("PatternLayout").addAttribute("pattern", "%d{HH:mm:ss} %p %c{1}: %m%n")))
    b.add(b.newRootLogger(Level.WARN).add(b.newAppenderRef("console")))
    Configurator.initialize(b.build())
  }
}

package repro.harness

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.data.LocalDB
import repro.core.opt.CostModel
import repro.core.stats.{Analyzer, Catalog}
import repro.imdb.ImdbLite

/** Shared experiment context per (sf, seed): the generated driver-side
  * snapshot (`local`), its lazy Spark view (`db`, whose DataFrames are built
  * only when a Spark-side run first uses them) and its ANALYZE catalog. Cached
  * for the lifetime of the JVM so unit tests and benches do not regenerate
  * data per suite.
  */
final case class Workbench(
    spark: SparkSession,
    cfg: ImdbLite.Config,
    db: Map[String, DataFrame],
    local: LocalDB,
    catalog: Catalog,
    cost: CostModel,
)

object Workbench {
  private val cache = mutable.Map.empty[(Double, Long), Workbench]

  /** Tame AQE so physical join choices stay with our planner. */
  def configure(spark: SparkSession): Unit = {
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", "-1")
    spark.conf.set("spark.sql.adaptive.autoBroadcastJoinThreshold", "-1")
  }

  def apply(spark: SparkSession, sf: Double, seed: Long = 42L): Workbench = synchronized {
    cache.getOrElseUpdate((sf, seed), {
      configure(spark)
      val cfg   = ImdbLite.Config(sf, seed)
      val db    = ImdbLite.database(spark, cfg)
      val local = LocalDB.collect(db)
      val cat   = Analyzer.analyze(local)
      Workbench(spark, cfg, db, local, cat, CostModel())
    })
  }
}

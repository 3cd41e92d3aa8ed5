package repro.imdb

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Reference for [[ImdbLite.generate]]: the original Spark generator of
  * IMDB-lite, `rand(seed)` columns over `spark.range`, with the range
  * partition count pinned to [[ImdbLite.Partitions]]. `rand` seeds one
  * stream per partition, so the partition count is part of the data;
  * `ImdbLiteDiffSpec` checks the driver-side generator against this one.
  *
  * The data's design (skew, correlations) is described at [[ImdbLite]].
  */
object ReferenceImdbLite {
  import ImdbLite.{Config, Partitions}

  /** Zipf-like rank draw on [1, nKeys] with pmf ∝ k^-alpha: rank 1 is the
    * most popular. Sampled by the inverse CDF of the continuous bounded
    * Pareto density x^-alpha on [1, nKeys] (log-uniform when alpha = 1),
    * which avoids the mass pile-up at rank 1 that naive clamped inverse-CDF
    * schemes produce.
    */
  private def zipf(seed: Long, nKeys: Long, alpha: Double): Column = {
    val u = rand(seed)
    val x =
      if (math.abs(alpha - 1.0) < 1e-9) pow(lit(nKeys.toDouble), u)
      else {
        val t = math.pow(nKeys.toDouble, 1.0 - alpha) - 1.0
        pow(u * t + 1.0, 1.0 / (1.0 - alpha))
      }
    least(lit(nKeys), greatest(lit(1L), floor(x).cast(LongType)))
  }

  /** Deterministic pseudo-gender of a person id (1 ~60%, 2 ~40%); usable from
    * any table that references `name.id` so cross-table correlation is exact.
    */
  private def genderOf(id: Column): Column =
    when(pmod(id * 2654435761L, lit(10L)) < 6L, lit(1L)).otherwise(lit(2L))

  private def uni(seed: Long, n: Long): Column = (rand(seed) * n).cast(LongType)

  /** Clamp a long column into [lo, hi]. */
  private def clamp(c: Column, lo: Long, hi: Long): Column =
    least(lit(hi), greatest(lit(lo), c))

  /** Generate one table of the schema at the given config. */
  def table(spark: SparkSession, name: String, cfg: Config): DataFrame = {
    val n       = Schema.rowCount(name, cfg.sf)
    val nMovie  = Schema.rowCount("title", cfg.sf)
    val nPerson = Schema.rowCount("name", cfg.sf)
    val nChar   = Schema.rowCount("char_name", cfg.sf)
    val nKeyw   = Schema.rowCount("keyword", cfg.sf)
    val nComp   = Schema.rowCount("company_name", cfg.sf)
    val s       = cfg.seed + name.hashCode.toLong // per-table seed base
    val id      = col("id")

    val df = name match {
      case "title" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id")
          .select(id, zipf(s + 1, 7, 0.8) as "kind_id")
          .withColumn("production_year",
            clamp(lit(1880L) + (pow(rand(s + 2), 0.35) * 120).cast(LongType)
                    + col("kind_id") * 2L, 1880L, 2019L))
          .withColumn("series_group", uni(s + 3, 50))

      case "name" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(
          id,
          genderOf(id)                                              as "gender",
          (pow(rand(s + 1), 2.0) * 100).cast(LongType)              as "name_group",
          (pow(rand(s + 2), 2.0) * 50).cast(LongType)               as "surname_group",
        )

      case "char_name" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(
          id,
          pmod(id * 7L, lit(100L))                                  as "chname_group",
        )

      case "keyword" =>
        // group 0 holds the most popular keyword ids (low ranks).
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(
          id,
          least(lit(19L), (((id - 1L) * 20L) / n).cast(LongType))   as "keyword_group",
        )

      case "company_name" =>
        // the biggest companies (low ids, drawn often) sit in country 0.
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(
          id,
          when(id <= math.max(1L, n / 20), 0L)
            .otherwise(pmod(id, lit(20L)))                          as "country_group",
          pmod(id, lit(50L))                                       as "cname_group",
        )

      case "cast_info" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nPerson, 0.85)                                 as "person_id",
          zipf(s + 2, nMovie, 0.85)                                  as "movie_id",
          zipf(s + 3, nChar, 0.9)                                   as "person_role_id",
        ).withColumn("role_id",
          when(genderOf(col("person_id")) === 1L, lit(1L) + uni(s + 4, 4))
            .otherwise(lit(5L) + uni(s + 5, 8)))

      case "movie_keyword" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nMovie, 0.85)                                  as "movie_id",
          zipf(s + 2, nKeyw, 0.95)                                  as "keyword_id",
        )

      case "movie_companies" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nMovie, 0.85)                                  as "movie_id",
          zipf(s + 2, nComp, 0.85)                                   as "company_id",
          when(rand(s + 3) < 0.7, 1L).otherwise(2L)                 as "company_type_id",
        )

      case "movie_info" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nMovie, 0.85)                                  as "movie_id",
          zipf(s + 2, 40, 0.9)                                      as "info_type_id",
        ).withColumn("info_group",
          clamp((lit(70.0) - log(10.0, col("movie_id")) * 10.0).cast(LongType)
                  + uni(s + 3, 30), 0L, 99L))

      case "movie_info_idx" =>
        // rating_bucket is high for popular (low-id) movies: the join-crossing
        // correlation that breaks the independence assumption (paper §IV-B).
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nMovie, 0.85)                                  as "movie_id",
          lit(35L) + uni(s + 2, 6)                                  as "info_type_id",
        ).withColumn("rating_bucket",
          clamp((lit(9.0) - log(10.0, col("movie_id")) * 1.5).cast(LongType)
                  + uni(s + 3, 5) - 2L, 0L, 9L))

      case "person_info" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nPerson, 0.85)                                 as "person_id",
          zipf(s + 2, 40, 0.9)                                      as "info_type_id",
        ).withColumn("pinfo_group",
          clamp((lit(35.0) - log(10.0, col("person_id")) * 6.0).cast(LongType)
                  + uni(s + 3, 15), 0L, 49L))

      case "aka_name" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nPerson, 0.85)                                 as "person_id",
          uni(s + 2, 50)                                            as "aname_group",
        )

      case "complete_cast" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nMovie, 0.85)                                  as "movie_id",
          lit(1L) + uni(s + 2, 2)                                   as "subject_id",
          lit(3L) + uni(s + 3, 2)                                   as "status_id",
        )

      case "movie_link" =>
        spark.range(0, n, 1, Partitions).select(
          zipf(s + 1, nMovie, 0.85)                                  as "movie_id",
          zipf(s + 2, nMovie, 0.9)                                  as "linked_movie_id",
          zipf(s + 3, 18, 0.9)                                      as "link_type_id",
        )

      case "info_type" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(id, pmod(id, lit(5L)) as "domain")
      case "role_type" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(id, pmod(id, lit(4L)) as "category")
      case "kind_type" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(id, pmod(id, lit(2L)) as "is_series")
      case "company_type" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(id, pmod(id, lit(2L)) as "ct_group")
      case "comp_cast_type" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(id, pmod(id, lit(2L)) as "cct_group")
      case "link_type" =>
        spark.range(1, n + 1, 1, Partitions).toDF("id").select(id, pmod(id, lit(6L)) as "link_group")

      case other => throw new IllegalArgumentException(s"unknown table: $other")
    }
    // Single deterministic column order, matching Schema.columns.
    df.select(Schema.columns(name).map(col): _*)
  }

  /** All tables of the schema at the given config. */
  def database(spark: SparkSession, cfg: Config): Map[String, DataFrame] =
    Schema.tables.map(t => t -> table(spark, t, cfg)).toMap
}

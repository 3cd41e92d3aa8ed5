package repro.imdb

import repro.{SparkSpec, TestData}
import repro.core.data.LocalDB

/** Generator-level checks: schema shape, determinism, key integrity, and the
  * skew/correlation mechanisms the workload depends on.
  */
class ImdbLiteSpec extends SparkSpec {

  private lazy val wb = TestData.wb(spark)

  test("database generates all schema tables") {
    assert(wb.db.keySet == Schema.tables.toSet)
  }

  for (t <- Schema.tables) {
    test(s"$t: columns match schema, in order") {
      assert(wb.db(t).columns.toVector == Schema.columns(t))
    }
    test(s"$t: row count matches Schema.rowCount at sf") {
      assert(wb.local(t).rowCount.toLong == Schema.rowCount(t, TestData.SF))
    }
    test(s"$t: all columns are BIGINT") {
      assert(wb.db(t).schema.fields.forall(_.dataType.typeName == "long"))
    }
    test(s"$t: Spark's rows equal the driver-side rows") {
      val local = wb.local(t)
      val rows  = wb.db(t).collect().map(r => Vector.tabulate(r.length)(r.getLong))
      val want  = Vector.tabulate(local.rowCount)(i => local.colNames.map(local.col(_)(i)))
      assert(rows.toVector == want)
    }
  }

  for (((tab, col), dom) <- Schema.domain.toVector.sortBy(_.toString)
       if tab != "title" || col != "id") {
    // every FK-ish domain column stays within the id range of its entity table
    val entity = Map(
      "movie" -> "title", "person" -> "name", "keyword" -> "keyword",
      "company" -> "company_name", "char" -> "char_name", "role" -> "role_type",
      "kind" -> "kind_type", "ctype" -> "company_type", "itype" -> "info_type",
      "cctype" -> "comp_cast_type", "ltype" -> "link_type",
    )(dom)
    test(s"$tab.$col within $entity id range") {
      val vals = wb.local(tab).col(col)
      val n    = Schema.rowCount(entity, TestData.SF)
      assert(vals.forall(v => v >= 1 && v <= n), s"out of [1,$n]")
    }
  }

  test("generation is deterministic in (sf, seed)") {
    val first = ImdbLite.generate(wb.cfg)
    val again = ImdbLite.generate(wb.cfg)
    for (t <- Schema.tables; c <- Schema.columns(t))
      assert(again(t).col(c) sameElements first(t).col(c), s"$t.$c")
  }

  test("generated data at SF 0.1, seed 42 has the pinned digest") {
    assert(LocalDB.digest(ImdbLite.generate(ImdbLite.Config(0.1, 42L))) ==
      "1e3939d951638bb8794e65f4be9217b6cacb214b381f1529ee5ef73a6e86b52a")
  }

  test("cast_info movie_id is skewed: top movie far above uniform share") {
    val ci   = wb.local("cast_info").col("movie_id")
    val top  = ci.groupBy(identity).map(_._2.length).max
    val unif = ci.length.toDouble / Schema.rowCount("title", TestData.SF)
    assert(top > 8 * unif, s"top=$top uniform=$unif")
  }

  test("movie_keyword keyword_id is skewed") {
    val mk   = wb.local("movie_keyword").col("keyword_id")
    val top  = mk.groupBy(identity).map(_._2.length).max
    val unif = mk.length.toDouble / Schema.rowCount("keyword", TestData.SF)
    assert(top > 5 * unif, s"top=$top uniform=$unif")
  }

  test("popular keywords live in keyword_group 0") {
    val mk     = wb.local("movie_keyword").col("keyword_id")
    val kGroup = wb.local("keyword")
    val groupOf = kGroup.col("id").zip(kGroup.col("keyword_group")).toMap
    val hits = mk.count(k => groupOf(k) == 0L).toDouble / mk.length
    // group 0 is 1/20 of keywords but draws far more than 1/20 of references
    assert(hits > 0.25, s"group-0 share=$hits")
  }

  test("rating_bucket correlates with movie popularity (join-crossing correlation)") {
    val mi  = wb.local("movie_info_idx")
    val ids = mi.col("movie_id"); val rb = mi.col("rating_bucket")
    val nMovie = Schema.rowCount("title", TestData.SF)
    val popular   = ids.indices.filter(i => ids(i) <= nMovie / 20).map(rb)
    val unpopular = ids.indices.filter(i => ids(i) > nMovie / 2).map(rb)
    assert(popular.nonEmpty && unpopular.nonEmpty)
    val avgPop = popular.sum.toDouble / popular.size
    val avgUn  = unpopular.sum.toDouble / unpopular.size
    assert(avgPop > avgUn + 2, s"popular=$avgPop unpopular=$avgUn")
  }

  test("cast_info fan-out correlates with movie_keyword fan-out per movie") {
    val ci = wb.local("cast_info").col("movie_id").groupBy(identity).view.mapValues(_.length).toMap
    val mk = wb.local("movie_keyword").col("movie_id").groupBy(identity).view.mapValues(_.length).toMap
    val nMovie = Schema.rowCount("title", TestData.SF)
    val popAvgCi = (1L to nMovie / 20).map(m => ci.getOrElse(m, 0)).sum.toDouble / (nMovie / 20)
    val allAvgCi = ci.values.sum.toDouble / nMovie
    assert(popAvgCi > 3 * allAvgCi, s"popular-movie cast fanout $popAvgCi vs avg $allAvgCi")
    val popAvgMk = (1L to nMovie / 20).map(m => mk.getOrElse(m, 0)).sum.toDouble / (nMovie / 20)
    val allAvgMk = mk.values.sum.toDouble / nMovie
    assert(popAvgMk > 3 * allAvgMk)
  }

  test("gender of cast_info.role_id is consistent with name.gender") {
    // role 1..4 only for gender-1 persons, 5..12 only for gender-2
    val ci = wb.local("cast_info")
    val genderOf = wb.local("name").col("id").zip(wb.local("name").col("gender")).toMap
    val pid = ci.col("person_id"); val role = ci.col("role_id")
    val bad = pid.indices.count { i =>
      val g = genderOf(pid(i))
      if (g == 1L) role(i) > 4 else role(i) < 5
    }
    assert(bad == 0, s"$bad inconsistent roles")
  }

  test("unknown table name is rejected") {
    // Schema.rowCount rejects it before the generator match is reached
    intercept[Exception] { ImdbLite.table("nope", wb.cfg) }
  }

  test("Schema.rowCount scales with sf for scaled tables, not for dims") {
    assert(Schema.rowCount("cast_info", 1.0) == 10 * Schema.rowCount("cast_info", 0.1))
    assert(Schema.rowCount("info_type", 1.0) == Schema.rowCount("info_type", 0.001))
  }
}

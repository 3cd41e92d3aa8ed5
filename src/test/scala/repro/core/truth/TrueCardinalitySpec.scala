package repro.core.truth

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestData}
import repro.core.data.{LocalDB, LocalTable}
import repro.core.opt.{GraphClass, GraphRel, JoinGraph}
import repro.workload.{EqPred, JobLite, RangePred}

/** The oracle must be *exact*: cross-checked against a brute-force nested
  * loop join on toy data and against Spark SQL on the real workload.
  */
class TrueCardinalityToySpec extends AnyFunSuite {

  // toy star: f(k1, k2) ⋈ d1(id) ⋈ d2(id)
  private val db = LocalDB(Map(
    "f"  -> LocalTable("f", Vector("k1", "k2", "v"),
      Map("k1" -> Array[Long](1, 1, 2, 2, 3, 3, 3, 4),
          "k2" -> Array[Long](1, 2, 1, 2, 1, 1, 2, 9),
          "v"  -> Array[Long](0, 1, 2, 3, 4, 5, 6, 7))),
    "d1" -> LocalTable("d1", Vector("id", "g"),
      Map("id" -> Array[Long](1, 2, 3), "g" -> Array[Long](0, 1, 0))),
    "d2" -> LocalTable("d2", Vector("id", "h"),
      Map("id" -> Array[Long](1, 2), "h" -> Array[Long](5, 6))),
  ))

  private def graph(predsF: Vector[repro.workload.Pred] = Vector.empty,
                    predsD1: Vector[repro.workload.Pred] = Vector.empty) = JoinGraph(
    "toy",
    Vector(
      GraphRel("f", "f", predsF, 1L),
      GraphRel("d1", "d1", predsD1, 2L),
      GraphRel("d2", "d2", Vector.empty, 4L),
    ),
    Vector(
      GraphClass(0, Vector((0, "k1"), (1, "id"))),
      GraphClass(1, Vector((0, "k2"), (2, "id"))),
    ),
  )

  /** Brute-force count of the 3-way join with optional filters. */
  private def brute(predsF: Vector[repro.workload.Pred], predsD1: Vector[repro.workload.Pred],
                    mask: Long): Long = {
    val f = db("f"); val d1 = db("d1"); val d2 = db("d2")
    def ok(t: LocalTable, r: Int, ps: Vector[repro.workload.Pred]) =
      ps.forall(p => p.eval(t.col(p.column)(r)))
    var cnt = 0L
    val useF = (mask & 1) != 0; val useD1 = (mask & 2) != 0; val useD2 = (mask & 4) != 0
    for (i <- 0 until f.rowCount if !useF || ok(f, i, predsF)) {
      val d1Matches =
        if (!useD1) 1L
        else (0 until d1.rowCount).count(j => ok(d1, j, predsD1) && d1.col("id")(j) == f.col("k1")(i)).toLong
      val d2Matches =
        if (!useD2) 1L
        else (0 until d2.rowCount).count(j => d2.col("id")(j) == f.col("k2")(i)).toLong
      if (useF) cnt += d1Matches * d2Matches
    }
    cnt
  }

  test("single relation cardinality = filtered rows") {
    val t = new TrueCardinality(graph(), db)
    assert(t.card(1L) == 8)
    assert(t.card(2L) == 3)
    assert(t.card(4L) == 2)
  }

  test("single relation with filter") {
    val t = new TrueCardinality(graph(predsF = Vector(EqPred("k1", 3))), db)
    assert(t.card(1L) == 3)
  }

  test("two-way joins match brute force") {
    val t = new TrueCardinality(graph(), db)
    assert(t.card(3L) == brute(Vector.empty, Vector.empty, 3L))
    assert(t.card(5L) == brute(Vector.empty, Vector.empty, 5L))
  }

  test("three-way join matches brute force") {
    val t = new TrueCardinality(graph(), db)
    assert(t.card(7L) == brute(Vector.empty, Vector.empty, 7L))
  }

  test("filters push into the join") {
    val pf = Vector[repro.workload.Pred](RangePred("k1", 2, 3))
    val pd = Vector[repro.workload.Pred](EqPred("g", 0))
    val t = new TrueCardinality(graph(pf, pd), db)
    assert(t.card(7L) == brute(pf, pd, 7L))
    assert(t.card(3L) == brute(pf, pd, 3L))
  }

  test("classNdv: distinct interface values") {
    val t = new TrueCardinality(graph(), db)
    // class 1 (k2/d2.id) on interface of {f, d1}: distinct k2 of join rows
    assert(t.classNdv(3L, 1) == 2) // k2 in {1, 2} among joined rows (k1<=3)
  }

  test("disconnected mask rejected") {
    val t = new TrueCardinality(graph(), db)
    intercept[IllegalArgumentException](t.card(6L)) // {d1, d2} not connected
  }

  test("empty filter result gives zero everywhere") {
    val t = new TrueCardinality(graph(predsF = Vector(EqPred("k1", 99))), db)
    assert(t.card(1L) == 0 && t.card(3L) == 0 && t.card(7L) == 0)
  }

  test("memo eviction does not change results") {
    val t = new TrueCardinality(graph(), db)
    val first = (1L to 7L).filter(m => m != 6 && m != 0).map(m => m -> t.card(m)).toMap
    val again = first.keys.map(m => m -> t.card(m)).toMap
    assert(first == again)
  }
}

/** Spark cross-check on the actual workload: |⋈ full| must equal the SQL
  * count for a sample of JOB-lite queries, and sub-joins for one family.
  */
class TrueCardinalitySparkSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  private val sample = Vector("q01a", "q02a", "q03b", "q04c", "q05d", "q06a",
                              "q07a", "q08a", "q09b", "q13a", "q15a", "q25a")

  for (name <- sample) {
    test(s"$name: full-join true cardinality equals Spark SQL count") {
      for ((n, df) <- wb.db) df.createOrReplaceTempView(n)
      val q = JobLite.byName(name)
      val g = JoinGraph.fromSpec(q)
      val t = new TrueCardinality(g, wb.local)
      val sparkCnt = spark.sql(q.countSql()).collect()(0).getLong(0)
      assert(t.card(g.fullMask) == sparkCnt, s"oracle=${t.card(g.fullMask)} spark=$sparkCnt")
    }
  }

  test("q06a: every connected pair and triple matches a Spark sub-join count") {
    for ((n, df) <- wb.db) df.createOrReplaceTempView(n)
    val q = JobLite.byName("q06a")
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val masks = (1L until (1L << g.nRels))
      .filter(m => java.lang.Long.bitCount(m) <= 3 && g.connected(m))
    for (m <- masks) {
      val subIdx  = (0 until g.nRels).filter(i => (m & (1L << i)) != 0)
      val subRels = subIdx.map(q.relations)
      val subClasses = q.classes.filter(c => c.members.count(x => (m & (1L << x._1)) != 0) >= 2)
      val from = subRels.map(r => s"${r.table} AS ${r.alias}").mkString(", ")
      val conj =
        subClasses.flatMap(c => c.members.filter(x => (m & (1L << x._1)) != 0).sliding(2).map {
          case Seq((r1, c1), (r2, c2)) =>
            s"${q.relations(r1).alias}.$c1 = ${q.relations(r2).alias}.$c2"
        }) ++
        subIdx.flatMap(i => q.preds(i).map(p => p.sql(s"${q.relations(i).alias}.${p.column}")))
      val where = if (conj.isEmpty) "" else conj.mkString(" WHERE ", " AND ", "")
      val cnt = spark.sql(s"SELECT COUNT(*) AS c FROM $from$where").collect()(0).getLong(0)
      assert(t.card(m) == cnt, s"mask=$m oracle=${t.card(m)} spark=$cnt")
    }
  }
}

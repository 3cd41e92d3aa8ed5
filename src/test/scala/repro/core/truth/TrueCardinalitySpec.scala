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

  test("frontier widths 0, 1 and 2 all count exactly") {
    // f keeps one row (k1=3, k2=1), so the chain starts there with both
    // classes open; d2 alone, then d2 ⋈ f, runs single-class frontiers
    val pf = Vector[repro.workload.Pred](EqPred("v", 4))
    val t  = new TrueCardinality(graph(predsF = pf), db)
    def widths(mask: Long, keep: Int): Set[Int] = {
      val order = t.chainOrder(mask)
      order.indices.map(k => java.lang.Long.bitCount(
        t.frontier(mask, order.take(k + 1).foldLeft(0L)((p, i) => p | (1L << i)), keep))).toSet
    }
    assert(widths(7L, -1) == Set(2, 1, 0))
    assert(widths(5L, -1) == Set(1, 0))
    assert(widths(1L, -1) == Set(0))
    assert(widths(7L, 0) == Set(2, 1))
    for (m <- Seq(1L, 3L, 5L, 7L)) assert(t.card(m) == brute(pf, Vector.empty, m), s"mask $m")
    assert(t.classNdv(7L, 0) == 1 && t.classNdv(7L, 1) == 1)
  }

  test("one scope reused across subsets equals fresh calls") {
    val pf     = Vector[repro.workload.Pred](RangePred("k1", 1, 3))
    val shared = new TrueCardinality(graph(predsF = pf), db).newScope()
    val masks  = Seq(7L, 3L, 1L, 5L, 2L, 4L, 7L)
    val fresh  = masks.map(m => new TrueCardinality(graph(predsF = pf), db).card(m))
    assert(masks.map(shared.card) == fresh)
    val touch0 = masks.filter(_ != 4L) // class 0 joins f and d1
    assert(touch0.map(shared.classNdv(_, 0)) ==
      touch0.map(m => new TrueCardinality(graph(predsF = pf), db).classNdv(m, 0)))
    assert(shared.entries > 0)
  }

  // toy star with a three-class fact: s(a, b, c) ⋈ da(id) ⋈ db(id) ⋈ dc(id).
  // s repeats (a, b, c) = (1, 1, 5), and db and dc repeat ids.
  private val db2 = LocalDB(Map(
    "s"  -> LocalTable("s", Vector("a", "b", "c"),
      Map("a" -> Array[Long](1, 1, 1, 1, 2, 2, 3, 1),
          "b" -> Array[Long](1, 1, 2, 2, 1, 9, 1, 1),
          "c" -> Array[Long](5, 5, 5, 6, 6, 5, 5, 5))),
    "da" -> LocalTable("da", Vector("id", "p"),
      Map("id" -> Array[Long](1, 2, 3), "p" -> Array[Long](0, 1, 1))),
    "db" -> LocalTable("db", Vector("id"), Map("id" -> Array[Long](1, 2, 2))),
    "dc" -> LocalTable("dc", Vector("id"), Map("id" -> Array[Long](5, 6, 6, 7))),
  ))

  private def star(preds: Map[String, Vector[repro.workload.Pred]]) = JoinGraph(
    "star",
    Vector("s", "da", "db", "dc").zipWithIndex.map { case (t, i) =>
      GraphRel(t, t, preds.getOrElse(t, Vector.empty), 1L << i)
    },
    Vector(
      GraphClass(0, Vector((0, "a"), (1, "id"))),
      GraphClass(1, Vector((0, "b"), (2, "id"))),
      GraphClass(2, Vector((0, "c"), (3, "id"))),
    ),
  )

  private def classValue(g: JoinGraph, d: LocalDB, ci: Int, i: Int, r: Int): Long =
    d(g.rels(i).table).col(g.classes(ci).members.find(_._1 == i).get._2)(r)

  /** Brute force: every combination of one filtered row per relation of
    * `mask` that agrees on every join class, as row ids by relation.
    */
  private def bruteJoin(g: JoinGraph, d: LocalDB, mask: Long): Seq[Map[Int, Int]] =
    (0 until g.nRels).filter(i => (mask & (1L << i)) != 0).foldLeft(Seq(Map.empty[Int, Int])) { (acc, i) =>
      val t = d(g.rels(i).table)
      for {
        m <- acc
        r <- 0 until t.rowCount
        if g.rels(i).preds.forall(p => p.eval(t.col(p.column)(r)))
        if g.classes.indices.forall(ci => (g.classes(ci).relMask & (1L << i)) == 0 ||
          m.forall { case (j, rj) =>
            (g.classes(ci).relMask & (1L << j)) == 0 || classValue(g, d, ci, j, rj) == classValue(g, d, ci, i, r)
          })
      } yield m + (i -> r)
    }

  /** `card` and `classNdv` (every touching class) of every connected subset
    * equal brute force, through one scope.
    */
  private def assertBrute(g: JoinGraph, d: LocalDB): Unit = {
    val scope = new TrueCardinality(g, d).newScope()
    for (m <- 1L to g.fullMask if g.connected(m)) {
      val rows = bruteJoin(g, d, m)
      assert(scope.card(m) == rows.size, s"card, mask $m")
      for (ci <- g.classes.indices if (g.classes(ci).relMask & m) != 0) {
        val j = java.lang.Long.numberOfTrailingZeros(g.classes(ci).relMask & m)
        assert(scope.classNdv(m, g.classes(ci).origId) ==
          rows.map(x => classValue(g, d, ci, j, x(j))).distinct.size, s"classNdv, mask $m class $ci")
      }
    }
  }

  test("relations without predicates count every row") {
    assertBrute(star(Map.empty), db2)
    assertBrute(star(Map("da" -> Vector(EqPred("p", 1)))), db2)
  }

  test("a relation whose predicate rejects every row builds an empty index") {
    // db and dc keep no rows: the chain starts at db and reaches dc later,
    // so dc is indexed (by class 2) with no rows
    val never = Vector[repro.workload.Pred](RangePred("id", 100, 200))
    val g     = star(Map("db" -> never, "dc" -> never))
    val t     = new TrueCardinality(g, db2)
    val order = t.chainOrder(g.fullMask)
    assert(order(0) == 2 && order.indexOf(3) > 0)
    val scope = t.newScope()
    assert(scope.card(g.fullMask) == 0)
    val dc = scope.index(3, 1L << 2)
    assert(dc.keys.size == 0 && dc.rows.isEmpty && dc.start.sameElements(Array(0)))
    assertBrute(g, db2)
  }

  test("single-relation card is the filtered row count and builds no index") {
    val g     = star(Map("da" -> Vector(EqPred("p", 1))))
    val scope = new TrueCardinality(g, db2).newScope()
    assert((0 until g.nRels).map(i => scope.card(1L << i)) == Seq(8L, 2L, 3L, 4L))
    assert(scope.classNdv(1L, 0) == 3 && scope.classNdv(1L, 1) == 3 && scope.classNdv(1L, 2) == 2)
    assert(scope.classNdv(4L, 1) == 2 && scope.classNdv(8L, 2) == 3)
    assert(scope.entries == 0)
  }

  test("steps adding two classes over duplicate rows, then none, count exactly") {
    // da keeps one row, so the chain is da, s (adds classes 1 and 2, over
    // s's repeated rows), db and dc (each adds none)
    val g = star(Map("da" -> Vector(EqPred("p", 0))))
    val t = new TrueCardinality(g, db2)
    val order = t.chainOrder(g.fullMask)
    assert(order.toSeq == Seq(1, 0, 2, 3))
    val keys = order.indices.map(k =>
      t.frontier(g.fullMask, order.take(k + 1).foldLeft(0L)((p, i) => p | (1L << i)), -1))
    assert(keys == Seq(1L, 6L, 4L, 0L))
    assert(t.card(g.fullMask) == 9)
    assertBrute(g, db2)
  }

  // toy path with a branch: r0(a) - r1(a, b, d) - r2(b, c) - r3(c), and
  // r4(d) hangs off r1; every join column repeats values, and r2 has the
  // fewest rows, so `card` chains start there
  private val db3 = LocalDB(Map(
    "r0" -> LocalTable("r0", Vector("a"), Map("a" -> Array[Long](1, 1, 2, 3))),
    "r1" -> LocalTable("r1", Vector("a", "b", "d"),
      Map("a" -> Array[Long](1, 2, 2, 3, 4),
          "b" -> Array[Long](1, 1, 2, 2, 3),
          "d" -> Array[Long](7, 7, 8, 9, 9))),
    "r2" -> LocalTable("r2", Vector("b", "c"),
      Map("b" -> Array[Long](1, 1, 2), "c" -> Array[Long](5, 6, 6))),
    "r3" -> LocalTable("r3", Vector("c"), Map("c" -> Array[Long](5, 5, 6))),
    "r4" -> LocalTable("r4", Vector("d"), Map("d" -> Array[Long](7, 8))),
  ))

  private val path = JoinGraph(
    "path",
    Vector.tabulate(5)(i => GraphRel(s"r$i", s"r$i", Vector.empty, 1L << i)),
    Vector(
      GraphClass(0, Vector((0, "a"), (1, "a"))),
      GraphClass(1, Vector((1, "b"), (2, "b"))),
      GraphClass(2, Vector((2, "c"), (3, "c"))),
      GraphClass(3, Vector((1, "d"), (4, "d"))),
    ),
  )

  /** Distinct values of class ci in the brute-force join of `mask`. */
  private def bruteNdv(g: JoinGraph, d: LocalDB, mask: Long, ci: Int): Int = {
    val j = java.lang.Long.numberOfTrailingZeros(g.classes(ci).relMask & mask)
    bruteJoin(g, d, mask).map(x => classValue(g, d, ci, j, x(j))).distinct.size
  }

  test("classNdv of a single-member class on a leaf eliminates that relation last") {
    val t = new TrueCardinality(path, db3)
    // class 2 has one member in {r0, r1, r2}: r2, a leaf of it
    assert(t.ndvOrder(7L, 2).toSeq == t.chainOrder(3L).toSeq :+ 2)
    assert(t.ndvOrder(7L, 2).toSeq != t.chainOrder(7L).toSeq)
    assert(t.classNdv(7L, 2) == bruteNdv(path, db3, 7L, 2))
    // class 3 has one member in {r1, r2, r3}: r1, a leaf of it
    assert(t.ndvOrder(14L, 3).last == 1)
    assert(t.classNdv(14L, 3) == bruteNdv(path, db3, 14L, 3))
  }

  test("classNdv of a single-member class on an articulation relation keeps the card chain") {
    val t = new TrueCardinality(path, db3)
    // class 3 has one member in {r0, r1, r2}: r1, whose removal splits it
    assert(t.ndvOrder(7L, 3).toSeq == t.chainOrder(7L).toSeq)
    assert(t.classNdv(7L, 3) == bruteNdv(path, db3, 7L, 3))
  }

  test("classNdv of a multi-member class keeps the card chain") {
    val t = new TrueCardinality(path, db3)
    for (ci <- Seq(0, 1)) {
      assert(t.ndvOrder(7L, ci).toSeq == t.chainOrder(7L).toSeq)
      assert(t.classNdv(7L, ci) == bruteNdv(path, db3, 7L, ci), s"class $ci")
    }
    assertBrute(path, db3)
  }

  test("TupleMap grows past its initial capacity and keeps insertion order") {
    val m   = new TupleMap(2, 1)
    val key = new Array[Long](2)
    for (r <- 0 until 3; i <- 0 until 1000) {
      key(0) = i.toLong; key(1) = -i.toLong * 7
      assert(m.add(key, 0, i.toLong) == i)
    }
    assert(m.size == 1000)
    for (i <- 0 until 1000) {
      assert(m.keys(2 * i) == i && m.keys(2 * i + 1) == -i * 7L && m.vals(i) == 3L * i)
      key(0) = i.toLong; key(1) = -i.toLong * 7
      assert(m.find(key, 0) == i)
    }
    key(0) = 1000; assert(m.find(key, 0) == -1)
    // width 0: one entry, the empty tuple
    val empty = new TupleMap(0, 4)
    assert(empty.find(key, 0) == -1)
    empty.add(key, 0, 5); empty.add(key, 1, 6)
    assert(empty.size == 1 && empty.vals(0) == 11)
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

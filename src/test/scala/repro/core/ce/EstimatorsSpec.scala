package repro.core.ce

import repro.{SparkSpec, TestData}
import repro.core.opt.JoinGraph
import repro.core.truth.TrueCardinality
import repro.workload.JobLite

/** Estimator behaviour: exactness where the paper reports exactness (base
  * tables, perfect-(n) oracles) and *under*-estimation where the paper
  * explains it (skewed/correlated joins).
  */
class EstimatorsSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  test("QError symmetric, >= 1, guards zero") {
    assert(QError(100, 100) == 1.0)
    assert(QError(1000, 10) == 100.0)
    assert(QError(10, 1000) == 100.0)
    assert(QError(0, 0) == 1.0)
    assert(QError(0, 50) == 50.0)
  }

  test("base-table estimates are near exact (paper: bases are fine)") {
    val q = JobLite.byName("q06a")
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val est = new StatsEstimator(wb.catalog)
    for (i <- 0 until g.nRels) {
      val e  = est.cardinality(g, 1L << i)
      val tr = t.card(1L << i).toDouble
      assert(QError(tr, e) < 2.0, s"rel ${g.rels(i).alias}: est=$e true=$tr")
    }
  }

  test("frequent-keyword join is underestimated (paper 6d / Nasdaq skew)") {
    val q = JobLite.byName("q06a") // k.keyword_group = 0 (popular keywords)
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val est = new StatsEstimator(wb.catalog)
    val kIdx  = g.rels.indexWhere(_.alias == "k")
    val mkIdx = g.rels.indexWhere(_.alias == "mk")
    val mask  = (1L << kIdx) | (1L << mkIdx)
    val e  = est.cardinality(g, mask)
    val tr = t.card(mask).toDouble
    assert(tr > 2.0 * e, s"expected underestimate: est=$e true=$tr")
  }

  test("rating-correlated join is underestimated (paper 18a correlation)") {
    val q = JobLite.byName("q08a") // midx.rating_bucket high selects popular movies
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val est = new StatsEstimator(wb.catalog)
    val ci   = g.rels.indexWhere(_.alias == "ci")
    val midx = g.rels.indexWhere(_.alias == "midx")
    val mask = (1L << ci) | (1L << midx)
    val e  = est.cardinality(g, mask)
    val tr = t.card(mask).toDouble
    assert(tr > 2.0 * e, s"expected underestimate: est=$e true=$tr")
  }

  test("PerfectEstimator equals the oracle on every connected subset (q03a)") {
    val q = JobLite.byName("q03a")
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val p = new PerfectEstimator(t)
    for (m <- 1L until (1L << g.nRels) if g.connected(m))
      assert(p.cardinality(g, m) == t.card(m).toDouble)
  }

  test("perfect-(n) is exact up to n and composes above (q06a)") {
    val q = JobLite.byName("q06a")
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val stats = new StatsEstimator(wb.catalog)
    val p2 = new PerfectNEstimator(2, t, stats)
    for (m <- 1L until (1L << g.nRels)
         if g.connected(m) && java.lang.Long.bitCount(m) <= 2)
      assert(p2.cardinality(g, m) == t.card(m).toDouble, s"mask $m")
    // above n the estimate is composed, finite, positive
    val full = g.fullMask
    assert(p2.cardinality(g, full) > 0 && !p2.cardinality(g, full).isInfinite)
  }

  test("perfect-(n) full-join q-error shrinks (weakly) as n grows (q06a)") {
    val q = JobLite.byName("q06a")
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val stats = new StatsEstimator(wb.catalog)
    val tr = t.card(g.fullMask).toDouble
    val qerrs = (0 to q.size).map { n =>
      val est =
        if (n == 0) stats else new PerfectNEstimator(n, t, stats)
      QError(tr, est.cardinality(g, g.fullMask))
    }
    assert(qerrs.last == 1.0, s"perfect-(${q.size}) must be exact: $qerrs")
    assert(qerrs.head >= qerrs.last)
    // n = size-1 should be no worse than n = 1 on the full join
    assert(qerrs(q.size - 1) <= qerrs(1) * 1.001, qerrs.toString)
  }

  test("perfect-(0) equals StatsEstimator everywhere (q02a)") {
    val q = JobLite.byName("q02a")
    val g = JoinGraph.fromSpec(q)
    val stats = new StatsEstimator(wb.catalog)
    for (m <- 1L until (1L << g.nRels) if g.connected(m))
      assert(stats.cardinality(g, m) > 0)
  }

  test("extendSelectivity is consistent with cardinality composition") {
    val q = JobLite.byName("q03a")
    val g = JoinGraph.fromSpec(q)
    val stats = new StatsEstimator(wb.catalog)
    // est(S ∪ {r}) == est(S) * base(r) * extendSelectivity(S, r)
    val full = g.fullMask
    for (r <- 0 until g.nRels) {
      val rest = full & ~(1L << r)
      if (g.connected(rest)) {
        val lhs = stats.cardinality(g, full)
        val rhs = stats.cardinality(g, rest) * stats.baseRows(g, r) *
          stats.extendSelectivity(g, rest, r)
        assert(math.abs(lhs - rhs) / math.max(lhs, 1e-9) < 1e-6, s"r=$r lhs=$lhs rhs=$rhs")
      }
    }
  }

  test("estimates are monotone under additional filters (fewer rows)") {
    val qa = JobLite.byName("q06a") // keyword_group = 0
    val qd = JobLite.byName("q06d") // rarer keyword + year filter
    val ga = JoinGraph.fromSpec(qa); val gd = JoinGraph.fromSpec(qd)
    val est = new StatsEstimator(wb.catalog)
    assert(est.cardinality(gd, gd.fullMask) < est.cardinality(ga, ga.fullMask))
  }
}

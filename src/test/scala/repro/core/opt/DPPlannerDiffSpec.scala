package repro.core.opt

import repro.{SparkSpec, TestData}
import repro.core.ce.{Estimator, PerfectNEstimator, StatsEstimator}
import repro.core.reopt.Reoptimizer
import repro.core.stats.Catalog
import repro.core.truth.TrueCardinality
import repro.harness.QueryCtx
import repro.workload.JobLite

/** Differential check: [[DPPlanner]] and [[StatsEstimator]] equal
  * [[ReferenceDPPlanner]] and [[ReferenceStatsEstimator]] (the DPsize planner
  * and the per-call stats formula they replaced) on the plan (tree, estimates,
  * costs, operators, build sides) and on every per-subset estimate: under
  * the stats estimator on all 113 JOB-lite graphs, under perfect-(2, 4, 6) on
  * every query of at most 12 relations, and on the first re-plan graph of
  * every τ=32 re-optimization that takes a step.
  */
class DPPlannerDiffSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  private def assertSame(g: JoinGraph, cat: Catalog, est: Estimator, refEst: Estimator): Unit = {
    val got = new DPPlanner(wb.cost, cat).plan(g, est)
    val ref = new ReferenceDPPlanner(wb.cost, cat).plan(g, refEst)
    assert(got.plan == ref.plan, s"${g.name}: ${got.plan.render(g)} vs ${ref.plan.render(g)}")
    assert(got.estimates == ref.estimates, g.name)
    assert(got.estimatesBySize == ref.estimatesBySize, g.name)
  }

  test("stats estimator: all 113 graphs") {
    for (q <- JobLite.all)
      assertSame(JoinGraph.fromSpec(q), wb.catalog, new StatsEstimator(wb.catalog), new ReferenceStatsEstimator(wb.catalog))
  }

  test("perfect-(2), (4) and (6): every query of at most 12 relations") {
    for (q <- JobLite.all if q.size <= 12) {
      val g     = JoinGraph.fromSpec(q)
      // the stats terms that perfect-(n) composes its estimates from
      val (stats, ref) = (new StatsEstimator(wb.catalog), new ReferenceStatsEstimator(wb.catalog))
      for (m <- 1L to g.fullMask if g.connected(m); r <- 0 until g.nRels if (g.neighbors(m) & (1L << r)) != 0)
        assert(stats.extendSelectivity(g, m, r) == ref.extendSelectivity(g, m, r), s"${q.name}: mask $m, r $r")
      for (r <- 0 until g.nRels) assert(stats.baseRows(g, r) == ref.baseRows(g, r), s"${q.name}: r $r")
      val truth = new TrueCardinality(g, wb.local)
      def perfectN(n: Int) = new PerfectNEstimator(n, truth, new StatsEstimator(wb.catalog))
      for (n <- Seq(2, 4, 6)) assertSame(g, wb.catalog, perfectN(n), perfectN(n))
    }
  }

  test("stats estimator: the first re-plan graph of every τ=32 run that takes a step") {
    var replans = 0
    for (q <- JobLite.all) {
      val ctx = new QueryCtx(wb, q)
      for (step <- ctx.simReopt(32.0, cat => ctx.statsEstimator(cat)).steps.headOption) {
        val g   = ctx.graph.contract(step.origMask, step.tempName)
        val cat = wb.catalog.withTable(step.tempName, Reoptimizer.tempStats(ctx.graph, ctx.truth, step.origMask))
        assertSame(g, cat, new StatsEstimator(cat), new ReferenceStatsEstimator(cat))
        replans += 1
      }
    }
    assert(replans > 0)
  }
}

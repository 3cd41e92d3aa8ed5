package repro.core.reopt

import repro.{SparkSpec, TestData}
import repro.core.ce.{PerfectEstimator, StatsEstimator}
import repro.core.exec.SimExecutor
import repro.core.opt.{DPPlanner, JoinGraph, Plan}
import repro.core.stats.TableStats
import repro.core.truth.TrueCardinality
import repro.workload.JobLite

/** The re-optimization loop: trigger semantics, graph contraction, exactness
  * of the final result on the real backend, and the headline behaviour —
  * materialize-and-replan recovers most of the perfect-plan execution time on
  * mis-estimated queries.
  */
class ReoptimizerSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  private def ctx(name: String) = {
    val q = JobLite.byName(name)
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    (q, g, t)
  }

  test("huge threshold: no re-optimization steps, plain execution") {
    val (_, g, t) = ctx("q06a")
    val sim = new SimExecutor(wb.cost, wb.catalog)
    val r = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, cat => new StatsEstimator(cat), new SimBackend(sim, t), threshold = 1e18)
    assert(r.replans == 0)
    assert(r.finalGraph.nRels == g.nRels)
  }

  test("threshold 32 triggers on the skew query q06a") {
    val (_, g, t) = ctx("q06a")
    val sim = new SimExecutor(wb.cost, wb.catalog)
    val r = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, cat => new StatsEstimator(cat), new SimBackend(sim, t), threshold = 4.0)
    assert(r.replans >= 1)
    // contraction shrank the graph
    assert(r.finalGraph.nRels < g.nRels)
    // each step records the materialized original mask and exact row count
    for (s <- r.steps) {
      assert(java.lang.Long.bitCount(s.origMask) >= 2)
      assert(s.rows == t.card(s.origMask))
      assert(s.qerror > 4.0)
    }
  }

  test("perfect estimator never triggers re-optimization") {
    val (_, g, t) = ctx("q08a")
    val sim = new SimExecutor(wb.cost, wb.catalog)
    val r = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, _ => new PerfectEstimator(t), new SimBackend(sim, t), threshold = 2.0)
    assert(r.replans == 0)
  }

  test("re-optimized execution approaches perfect and beats bad pg plans when triggered (sim)") {
    var improvedSomewhere = false
    for (name <- Vector("q06a", "q08a", "q16a", "q26a")) {
      val (_, g, t) = ctx(name)
      val sim     = new SimExecutor(wb.cost, wb.catalog)
      val planner = new DPPlanner(wb.cost, wb.catalog)
      val pgMs   = SimExecutor.toMillis(
        sim.executionWork(g, t, planner.plan(g, new StatsEstimator(wb.catalog)).plan))
      val perfMs = SimExecutor.toMillis(
        sim.executionWork(g, t, planner.plan(g, new PerfectEstimator(t)).plan))
      val r = new Reoptimizer(wb.cost, wb.catalog)
        .run(g, t, cat => new StatsEstimator(cat), new SimBackend(sim, t), threshold = 32.0)
      // re-optimization should not be catastrophically worse than pg
      assert(r.execMs < math.max(pgMs, perfMs) * 20, s"$name: reopt=${r.execMs} pg=$pgMs")
      if (r.execMs < pgMs * 0.9) improvedSomewhere = true
    }
    assert(improvedSomewhere, "re-optimization improved none of the skew queries")
  }

  test("real backend: re-optimized query returns the exact result count") {
    val (_, g, t) = ctx("q06a")
    val backend = new SparkBackend(spark, wb.db, t)
    val r = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, cat => new StatsEstimator(cat), backend, threshold = 2.0)
    backend.cleanup()
    assert(r.execMs > 0)
    assert(backend.lastCount == t.card(g.fullMask),
      s"re-optimized count ${backend.lastCount} != true ${t.card(g.fullMask)}")
    // exactness: final graph count computed by a fresh independent path
    val fullTrue = t.card(g.fullMask)
    val simBackend = new SimBackend(new SimExecutor(wb.cost, wb.catalog), t)
    val r2 = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, cat => new StatsEstimator(cat), simBackend, threshold = 2.0)
    assert(t.card(r2.finalGraph.origUnion(r2.finalGraph.fullMask)) == fullTrue)
  }

  test("real and simulated backends agree on steps taken (same trigger path)") {
    val (_, g, t) = ctx("q04a")
    val sim = new SimBackend(new SimExecutor(wb.cost, wb.catalog), t)
    val rSim = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, cat => new StatsEstimator(cat), sim, threshold = 8.0)
    val backend = new SparkBackend(spark, wb.db, t)
    val rReal = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, cat => new StatsEstimator(cat), backend, threshold = 8.0)
    backend.cleanup()
    assert(rSim.steps.map(_.origMask) == rReal.steps.map(_.origMask))
    assert(rSim.steps.map(_.rows) == rReal.steps.map(_.rows))
  }

  test("maxSteps caps the loop") {
    val (_, g, t) = ctx("q26a")
    val sim = new SimExecutor(wb.cost, wb.catalog)
    val r = new Reoptimizer(wb.cost, wb.catalog)
      .run(g, t, cat => new StatsEstimator(cat), new SimBackend(sim, t),
           threshold = 1.0001, maxSteps = 2)
    assert(r.replans <= 2)
  }

  test("tau=32 on all 113 queries: one SimBackend scope equals a fresh scope per call") {
    val sim = new SimExecutor(wb.cost, wb.catalog)
    /** Opens a fresh oracle scope on every call. */
    final class FreshScopeBackend(truth: TrueCardinality) extends ExecBackend {
      override def run(g: JoinGraph, plan: Plan): Double =
        SimExecutor.toMillis(sim.executionWork(g, truth, plan))
      override def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats) =
        (SimExecutor.toMillis(sim.materializationWork(g, truth, plan)), Reoptimizer.tempStats(g, truth, plan.mask))
    }
    val ro = new Reoptimizer(wb.cost, wb.catalog)
    for (q <- JobLite.all) {
      val g = JoinGraph.fromSpec(q)
      def loop(backend: TrueCardinality => ExecBackend) = {
        val t = new TrueCardinality(g, wb.local)
        ro.run(g, t, cat => new StatsEstimator(cat), backend(t), threshold = 32.0)
      }
      val one   = loop(new SimBackend(sim, _))
      val fresh = loop(new FreshScopeBackend(_))
      assert(one.steps == fresh.steps, q.name)
      assert(one.execMs == fresh.execMs, q.name)
      assert(one.finalPlan == fresh.finalPlan, q.name)
      assert(one.finalGraph == fresh.finalGraph, q.name)
    }
  }

  test("temp stats are exact (rows and interface ndv)") {
    val (_, g, t) = ctx("q06a")
    val j = new DPPlanner(wb.cost, wb.catalog)
      .plan(g, new StatsEstimator(wb.catalog)).plan.joinsBottomUp.head
    val ts = Reoptimizer.tempStats(g, t, j.mask)
    assert(ts.rowCount == t.card(j.mask))
    for ((c, _) <- g.interfaceClasses(j.mask))
      assert(ts.columns(s"c${c.origId}").ndv == math.max(1L, t.classNdv(j.mask, c.origId)))
  }
}

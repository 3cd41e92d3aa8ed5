package repro.perfbench

import repro.core.ce.Estimator
import repro.core.exec.SimExecutor
import repro.core.opt.{DPPlanner, Plan}
import repro.core.reopt.{Reoptimizer, SimBackend}
import repro.harness.{QueryCtx, Workbench}
import repro.workload.{JobLite, QuerySpec}

/** What one query produced in one pass. `ctx` (and with it the oracle's
  * memo) is kept only for the warm-up pass, whose outputs are checked.
  */
final case class Done(
    q: QuerySpec,
    ctx: QueryCtx,
    plan: Plan,
    estimatesBySize: Map[Int, Int],
    simMs: Double,
    reopt: Option[Reoptimizer#Result],
) {
  /** The figures every later pass must repeat exactly. */
  def fingerprint: (Double, Double) = (simMs, plan.cost)
}

/** Check failures: per query name, and for the pass as a whole. */
final case class Failures(perQuery: Map[String, Vector[String]], global: Vector[String])

/** One workload: a fixed query set and what a user does with each query.
  * Every query of every pass builds a fresh [[QueryCtx]], and so a fresh
  * oracle, as a user planning that query would.
  */
sealed abstract class Workload(val name: String, val queries: Vector[QuerySpec]) {
  def run(wb: Workbench, q: QuerySpec, tr: Tracer): Done
  def check(wb: Workbench, done: Vector[Done]): Failures

  protected def newCtx(wb: Workbench, q: QuerySpec, tr: Tracer): QueryCtx =
    tr.span("truth.init")(new QueryCtx(wb, q))

  protected def traced(est: Estimator, tr: Tracer): Estimator =
    if (tr.on) new TracedEstimator(est, tr) else est
}

object Workloads {

  /** Re-optimization threshold: the paper's τ. */
  val Tau = 32.0
  /** The loop's step cap, as [[Reoptimizer.run]] defaults it. */
  val MaxSteps = 20
  /** Relations in all of JOB-lite (Table III), i.e. Table I's N=1 row. */
  val TotalRelations = 977

  /** Sub-joins checked against DuckDB per query, and the largest true size
    * a checked sub-join may have, so that DuckDB counts each in about 0.1 s.
    */
  val DuckSamplesPerQuery = 4
  val DuckMaxRows         = 250000L

  val all: Vector[Workload] = Vector(PerfectOracle, Reopt)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** First variant of every family with 7 to 9 relations: mid-sized joins,
    * whose perfect plans each take 0.1–0.8 s. The 14- and 17-relation
    * queries would take 8–95 s each.
    */
  object PerfectOracle extends Workload("perfect-oracle",
      JobLite.all.filter(q => q.size >= 7 && q.size <= 9).groupBy(_.name.dropRight(1))
        .values.map(_.minBy(_.name)).toVector.sortBy(_.name)) {

    def run(wb: Workbench, q: QuerySpec, tr: Tracer): Done = {
      val ctx = newCtx(wb, q, tr)
      val res = tr.span("opt.plan")(ctx.planner.plan(ctx.graph, traced(ctx.perfect, tr)))
      tr.add("opt.plan_calls", 1)
      tr.add("opt.subsets", res.estimates.size)
      val work = tr.span("exec.sim")(ctx.sim.executionWork(ctx.graph, ctx.truth, res.plan))
      tr.add("exec.sim_calls", 1)
      tr.add("truth.subsets", ctx.truth.memoSize)
      Done(q, ctx, res.plan, res.estimatesBySize, SimExecutor.toMillis(work), None)
    }

    def check(wb: Workbench, done: Vector[Done]): Failures = {
      val duck = new DuckRef(wb.local)
      val perQuery =
        try done.map { d =>
          val g     = d.ctx.graph
          val card  = (m: Long) => d.ctx.truth.card(m)
          val stats = d.ctx.planner.plan(g, d.ctx.statsEstimator()).plan
          d.q.name -> (
            Checks.planShape(d.q, g, d.plan) ++
            Checks.estimateCounts(d.q, d.estimatesBySize) ++
            Checks.optimal(d.q.name, d.plan.cost,
              Checks.trueCost(g, d.plan, card, wb.cost, wb.catalog),
              Checks.trueCost(g, stats, card, wb.cost, wb.catalog)) ++
            duckSample(d).flatMap(m => Checks.cardMatches(d.q.name, m, card(m), duck.count(d.q, m))))
        }.toMap
        finally duck.close()
      Failures(perQuery, Vector.empty)
    }

    /** A fixed pseudo-random sample of the query's connected sub-joins of at
      * least two relations, small enough for DuckDB to count quickly.
      */
    private def duckSample(d: Done): Vector[Long] = {
      val adj  = Checks.adjacency(d.q)
      val salt = d.q.name.hashCode.toLong
      (1L until (1L << d.q.size))
        .filter(m => java.lang.Long.bitCount(m) >= 2 && Checks.connected(adj, m))
        .sortBy(m => java.lang.Long.rotateLeft((m ^ salt) * 0x9E3779B97F4A7C15L, 17) * 0xBF58476D1CE4E5B9L)
        .iterator.filter(m => d.ctx.truth.card(m) <= DuckMaxRows)
        .take(DuckSamplesPerQuery).toVector
    }
  }

  /** The paper's τ=32 re-optimization loop over all 113 queries, executed
    * by the simulated backend. Its checks also cover the stats-estimator DP
    * that starts the loop, on all 113 queries.
    */
  object Reopt extends Workload("reopt", JobLite.all) {

    def run(wb: Workbench, q: QuerySpec, tr: Tracer): Done = {
      val ctx     = newCtx(wb, q, tr)
      val sim     = new SimBackend(ctx.sim, ctx.truth)
      val backend = if (tr.on) new TracedBackend(sim, tr) else sim
      val res = tr.span("reopt.run")(
        new Reoptimizer(wb.cost, wb.catalog)
          .run(ctx.graph, ctx.truth, cat => traced(ctx.statsEstimator(cat), tr), backend, Tau, MaxSteps))
      tr.add("opt.plan", math.round(res.planMs * 1e6))
      tr.add("opt.plan_calls", res.replans + 1)
      tr.add("reopt.replans", res.replans)
      tr.add("truth.subsets", ctx.truth.memoSize)
      Done(q, ctx, res.finalPlan, Map.empty, res.execMs, Some(res))
    }

    /** Queries re-run with τ above every Q-error: the first variant of each
      * family up to 12 relations.
      */
    val noopSample: Vector[QuerySpec] =
      JobLite.all.filter(_.size <= 12).groupBy(_.name.dropRight(1)).values.map(_.minBy(_.name)).toVector.sortBy(_.name)

    def check(wb: Workbench, done: Vector[Done]): Failures = {
      // The loop's first plan is the stats plan: check that DP on every query.
      val stats: Map[String, DPPlanner#Result] =
        done.map(d => d.q.name -> d.ctx.planner.plan(d.ctx.graph, d.ctx.statsEstimator())).toMap
      val n1 = stats.values.map(_.estimatesBySize.getOrElse(1, 0)).sum
      val noop = noopSample.map { q =>
        val ctx   = new QueryCtx(wb, q)
        val plan  = ctx.planner.plan(ctx.graph, ctx.statsEstimator()).plan
        val simMs = SimExecutor.toMillis(ctx.sim.executionWork(ctx.graph, ctx.truth, plan))
        q.name -> Checks.reoptNoop(q.name, ctx.simReopt(Double.MaxValue, cat => ctx.statsEstimator(cat)), simMs)
      }.toMap
      val perQuery = done.map { d =>
        val res = d.reopt.get
        val s   = stats(d.q.name)
        d.q.name -> (
          Checks.estimateCounts(d.q, s.estimatesBySize) ++
          Checks.planShape(d.q, d.ctx.graph, s.plan) ++
          Checks.planShape(d.q, res.finalGraph, res.finalPlan) ++
          Checks.reoptRun(d.q.name, res, Tau, MaxSteps, m => d.ctx.truth.card(m)) ++
          noop.getOrElse(d.q.name, Vector.empty))
      }.toMap
      val global =
        if (n1 == TotalRelations) Vector.empty else Vector(s"Table I N=1 row totals $n1, not $TotalRelations")
      Failures(perQuery, global)
    }
  }
}

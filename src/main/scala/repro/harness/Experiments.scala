package repro.harness

import repro.core.ce.{Estimator, PerfectEstimator, PerfectNEstimator, StatsEstimator}
import repro.core.exec.{SimExecutor, SparkExecutor}
import repro.core.opt.{DPPlanner, JoinGraph, Plan}
import repro.core.reopt.{Reoptimizer, SimBackend, SparkBackend}
import repro.core.stats.Catalog
import repro.core.truth.TrueCardinality
import repro.workload.{JobLite, QuerySpec}

/** Per-query experiment state shared by every configuration of that query:
  * the graph, a single true-cardinality oracle, and the executors.
  */
final class QueryCtx(val wb: Workbench, val q: QuerySpec) {
  val graph: JoinGraph        = q.graph
  val truth: TrueCardinality  = new TrueCardinality(graph, wb.local)
  val sim: SimExecutor        = new SimExecutor(wb.cost, wb.catalog)
  val planner: DPPlanner      = new DPPlanner(wb.cost, wb.catalog)

  def statsEstimator(cat: Catalog = wb.catalog): StatsEstimator = new StatsEstimator(cat)
  def perfect: Estimator                     = new PerfectEstimator(truth)
  def perfectN(n: Int, cat: Catalog = wb.catalog): Estimator =
    if (n <= 0) statsEstimator(cat)
    else new PerfectNEstimator(n, truth, statsEstimator(cat))

  /** Plan with `est`, price with true cardinalities; (execMs, planMs, plan). */
  def simRun(est: Estimator): (Double, Double, Plan) = {
    val r = planner.plan(graph, est)
    (SimExecutor.toMillis(sim.executionWork(graph, truth, r.plan)), r.planningNanos / 1e6, r.plan)
  }

  /** Re-optimize with the simulated backend. */
  def simReopt(threshold: Double, mkEst: Catalog => Estimator): Reoptimizer#Result =
    new Reoptimizer(wb.cost, wb.catalog)
      .run(graph, truth, mkEst, new SimBackend(sim, truth), threshold)
}

/** One query's simulated figures under every paper configuration, in
  * simulated-execution milliseconds. Every paper table is a fold over these.
  */
final case class QueryRun(
    name: String,
    estBySize: Map[Int, Int],
    pgMs: Double,
    perfectMs: Double,
    /** Fig 2: n -> perfect-(n) plan, for n in [[Experiments.PerfectNs]]. */
    perfectNMs: Map[Int, Double],
    /** Fig 8: n -> perfect-(n) re-optimized at τ, for n in [[Experiments.ReoptNs]]. */
    reoptNMs: Map[Int, Double],
    /** Fig 7: τ -> (execMs, planMs) of the re-optimized stats plan. */
    tauMs: Map[Double, (Double, Double)],
) {
  def reoptMs: Double  = tauMs(Experiments.Tau)._1
  def pgRel: Double    = pgMs / math.max(perfectMs, 1e-9)
  def reoptRel: Double = reoptMs / math.max(perfectMs, 1e-9)
}

/** One query's real Spark wall-clock milliseconds (Fig 1). */
final case class RealRun(name: String, pgMs: Double, perfectMs: Double, reoptMs: Double, steps: Int)

object Experiments {

  /** Scale of the simulated experiments. */
  val SF: Double     = sys.env.getOrElse("REPRO_BENCH_SF", "0.1").toDouble
  /** Scale for *real* Spark executions (Fig 1): mis-planned queries produce
    * intermediates hundreds of times larger than their result, so the real
    * runs use a smaller database than the simulated tables.
    */
  val RealSF: Double = sys.env.getOrElse("REPRO_REAL_SF", "0.07").toDouble
  /** The paper's re-optimization threshold. */
  val Tau: Double    = 32.0
  /** Fig 2's perfect-(n) levels; Fig 8 re-optimizes the first seven. */
  val PerfectNs: Vector[Int]  = Vector(0, 1, 2, 3, 4, 5, 6, 8, 10, 17)
  val ReoptNs: Vector[Int]    = PerfectNs.take(7)
  /** Fig 7's re-optimization thresholds. */
  val Taus: Vector[Double]    = Vector(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 512.0)

  /** Run every simulated configuration of one query on one shared oracle.
    * Perfect-(0) is the stats estimator and perfect-(n) for n ≥ the query's
    * size is exact on every subset, so those reuse the pg and perfect plans;
    * Fig 8's re-optimized perfect-(0) is Fig 7's τ run.
    */
  def runQuery(wb: Workbench, q: QuerySpec): QueryRun = {
    val ctx       = new QueryCtx(wb, q)
    val stats     = ctx.planner.plan(ctx.graph, ctx.statsEstimator())
    val pgMs      = SimExecutor.toMillis(ctx.sim.executionWork(ctx.graph, ctx.truth, stats.plan))
    val perfectMs = ctx.simRun(ctx.perfect)._1
    val tauMs = Taus.map { t =>
      val r = ctx.simReopt(t, cat => ctx.statsEstimator(cat))
      t -> (r.execMs, r.planMs)
    }.toMap
    QueryRun(
      q.name, stats.estimatesBySize, pgMs, perfectMs,
      PerfectNs.map { n =>
        n -> (if (n <= 0) pgMs else if (n >= q.size) perfectMs else ctx.simRun(ctx.perfectN(n))._1)
      }.toMap,
      ReoptNs.map { n =>
        n -> (if (n <= 0) tauMs(Tau)._1 else ctx.simReopt(Tau, cat => ctx.perfectN(n, cat)).execMs)
      }.toMap,
      tauMs,
    )
  }

  def runAll(wb: Workbench, queries: Seq[QuerySpec]): Vector[QueryRun] = {
    val t0 = System.nanoTime()
    val res = queries.iterator.map { q =>
      val r = runQuery(wb, q)
      Console.err.println(f"[exp] ${r.name}%-6s pg=${r.pgMs}%10.1f perfect=${r.perfectMs}%10.1f reopt=${r.reoptMs}%10.1f")
      r
    }.toVector
    Console.err.println(f"[exp] ${res.size} queries took ${(System.nanoTime() - t0) / 1e9}%.1f s")
    res
  }

  /** Real Spark wall-clock for one query's three configurations. The pg
    * plan, the perfect plan and the re-optimized run must return the same
    * row count.
    */
  def realRun(wb: Workbench, q: QuerySpec): RealRun = {
    val ctx  = new QueryCtx(wb, q)
    val exec = new SparkExecutor(wb.spark, wb.db)
    val pgPlan   = ctx.planner.plan(ctx.graph, ctx.statsEstimator()).plan
    val perfPlan = ctx.planner.plan(ctx.graph, ctx.perfect).plan
    val (pgRows, pgMs)     = exec.run(ctx.graph, pgPlan)
    val (perfRows, perfMs) = exec.run(ctx.graph, perfPlan)
    val backend  = new SparkBackend(wb.spark, wb.db, ctx.truth)
    val re =
      try new Reoptimizer(wb.cost, wb.catalog)
        .run(ctx.graph, ctx.truth, cat => ctx.statsEstimator(cat), backend, Tau)
      finally backend.cleanup()
    require(pgRows == perfRows && perfRows == backend.lastCount,
      s"${q.name}: row counts differ: pg=$pgRows perfect=$perfRows reopt=${backend.lastCount}")
    RealRun(q.name, pgMs, perfMs, re.execMs, re.replans)
  }

  /** Fig 1: the 20 queries with the slowest simulated pg plans, executed for
    * real on `wbReal`.
    */
  def top20(res: Vector[QueryRun], wbReal: Workbench): Vector[RealRun] =
    res.sortBy(-_.pgMs).take(20).map { r =>
      val run = realRun(wbReal, JobLite.byName(r.name))
      Console.err.println(f"[top20] ${run.name} pg=${run.pgMs}%8.0f ms perfect=${run.perfectMs}%8.0f ms " +
        f"reopt=${run.reoptMs}%8.0f ms steps=${run.steps}")
      run
    }
}

package repro.core.reopt

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.ce.{Estimator, QError}
import repro.core.exec.{SimExecutor, SparkExecutor}
import repro.core.opt.{CostModel, DPPlanner, JoinGraph, Plan}
import repro.core.stats.{Catalog, ColumnStats, TableStats}
import repro.core.truth.TrueCardinality

/** How a re-optimization step runs the plan / materializes a sub-join, and
  * where the loop's trigger reads true cardinalities. Returned times are in
  * "work milliseconds" (simulated) or wall-clock milliseconds (Spark).
  */
trait ExecBackend {
  /** Execute the final plan; returns execution time in ms. */
  def run(g: JoinGraph, plan: Plan): Double
  /** Materialize `plan`'s sub-join as `tempName`; returns (ms, exact stats). */
  def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats)
  /** The true cardinality of a sub-join, by original-relation mask, that the
    * trigger of one loop run on `truth`'s query reads. By default a fresh
    * oracle scope for the run.
    */
  def trueCards(truth: TrueCardinality): Long => Long = truth.newScope().card
}

/** Deterministic backend: prices execution with true cardinalities via
  * [[SimExecutor]]; temp statistics come exactly from the oracle. One oracle
  * scope serves the backend's lifetime (one loop run): every pricing,
  * temp-statistics and trigger lookup shares the relation row indexes it
  * builds.
  */
final class SimBackend(sim: SimExecutor, truth: TrueCardinality) extends ExecBackend {
  private[reopt] val scope: TrueCardinality#Scope = truth.newScope()

  override def run(g: JoinGraph, plan: Plan): Double =
    SimExecutor.toMillis(sim.executionWork(g, scope, plan))

  override def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats) = {
    val ms = SimExecutor.toMillis(sim.materializationWork(g, scope, plan))
    (ms, Reoptimizer.tempStats(g, scope, plan.mask))
  }

  override def trueCards(t: TrueCardinality): Long => Long = {
    require(t eq truth, "the loop's oracle is not the backend's")
    scope.card
  }
}

/** Real backend: executes on Spark, materializing temporaries with
  * persist+count (the Spark phrasing of the paper's CREATE TEMP TABLE).
  * Registered temporaries become joinable base tables for later steps. Its
  * temp statistics and trigger lookups share one oracle scope for the
  * backend's lifetime (one loop run).
  */
final class SparkBackend(
    spark: SparkSession,
    baseDb: Map[String, DataFrame],
    truth: TrueCardinality,
) extends ExecBackend {
  private val scope = truth.newScope()
  private val db = mutable.Map[String, DataFrame](baseDb.toSeq: _*)
  private val cached = mutable.ArrayBuffer.empty[DataFrame]

  /** Row count returned by the most recent final-plan execution. */
  var lastCount: Long = -1L

  private def executor = new SparkExecutor(spark, db)

  override def run(g: JoinGraph, plan: Plan): Double = {
    val (n, ms) = executor.run(g, plan)
    lastCount = n
    ms
  }

  override def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats) = {
    val (df, _, ms) = executor.materialize(g, plan)
    db(tempName) = df
    cached += df
    (ms, Reoptimizer.tempStats(g, scope, plan.mask))
  }

  override def trueCards(t: TrueCardinality): Long => Long = {
    require(t eq truth, "the loop's oracle is not the backend's")
    scope.card
  }

  /** Unpersist all temporaries created during a query's re-optimization. */
  def cleanup(): Unit = { cached.foreach(_.unpersist(false)); cached.clear() }
}

/** The paper's re-optimization scheme (§V), run as an AQE-style driver loop:
  *
  *  1. plan the (remaining) query with the current estimator;
  *  2. inspect the chosen plan's join operators bottom-up and find the lowest
  *     one whose Q-error — true vs estimated cardinality — exceeds the
  *     threshold τ (the paper's trigger, §V-A; true cardinalities are what
  *     EXPLAIN ANALYZE reported in the paper's simulation);
  *  3. if none (or the offender is the whole query): execute and stop;
  *  4. otherwise materialize that sub-join as a temporary table, contract the
  *     join graph around it, inject the temporary's *exact* statistics into
  *     the catalog, and re-plan the remainder. Repeat.
  *
  * Planning time (all DP invocations) and execution time (materializations +
  * final plan) are accounted separately, as in the paper.
  */
final class Reoptimizer(cost: CostModel, baseCatalog: Catalog) {

  final case class Step(query: String, tempName: String, origMask: Long, rows: Long, qerror: Double)

  final case class Result(
      execMs: Double,
      planMs: Double,
      steps: Vector[Step],
      finalPlan: Plan,
      finalGraph: JoinGraph,
  ) { def replans: Int = steps.size }

  /** Run with re-optimization.
    *
    * @param g0 original query graph
    * @param truth oracle on `g0`
    * @param mkEstimator estimator factory given the (temp-augmented) catalog
    * @param backend execution backend
    * @param threshold Q-error trigger τ (paper default 32)
    */
  def run(
      g0: JoinGraph,
      truth: TrueCardinality,
      mkEstimator: Catalog => Estimator,
      backend: ExecBackend,
      threshold: Double = 32.0,
      maxSteps: Int = 20,
  ): Result = {
    var g       = g0
    var catalog = baseCatalog
    var execMs  = 0.0
    var planNs  = 0L
    val steps   = Vector.newBuilder[Step]
    var nSteps  = 0
    // the trigger's true cardinalities, from one source for the whole loop
    val trueRows = backend.trueCards(truth)

    while (true) {
      val planner = new DPPlanner(cost, catalog)
      val est     = mkEstimator(catalog)
      val res     = planner.plan(g, est)
      planNs += res.planningNanos

      val offender =
        if (nSteps >= maxSteps) None
        else res.plan.joinsBottomUp.find { j =>
          val t = trueRows(g.origUnion(j.mask)).toDouble
          QError(t, j.estRows) > threshold && j.mask != g.fullMask
        }

      offender match {
        case None =>
          execMs += backend.run(g, res.plan)
          return Result(execMs, planNs / 1e6, steps.result(), res.plan, g)
        case Some(j) =>
          // interned: every run of a query names its temporaries alike, and
          // callers that keep results keep these names
          val tempName   = s"${g0.name}_tmp$nSteps".intern()
          val (ms, ts)   = backend.materialize(g, subPlan(res.plan, j.mask), tempName)
          execMs += ms
          catalog = catalog.withTable(tempName, ts)
          steps += Step(g0.name, tempName, g.origUnion(j.mask), ts.rowCount, QError(trueRows(g.origUnion(j.mask)).toDouble, j.estRows))
          g = g.contract(j.mask, tempName)
          nSteps += 1
      }
    }
    throw new IllegalStateException("unreachable")
  }

  /** Find the sub-plan rooted at `mask` inside `plan`. */
  private def subPlan(plan: Plan, mask: Long): Plan =
    if (plan.mask == mask) plan
    else plan match {
      case j: repro.core.opt.JoinPlan =>
        if ((j.left.mask & mask) == mask) subPlan(j.left, mask)
        else subPlan(j.right, mask)
      case _ => throw new IllegalStateException(s"sub-plan $mask not found")
    }
}

object Reoptimizer {
  /** Exact statistics of a materialized sub-join `mask` of graph `g`: row
    * count and per-interface-column ndv from the oracle (what ANALYZE on the
    * temp table would return; the data was just computed, so this is free).
    */
  def tempStats(g: JoinGraph, truth: TrueCardinality, mask: Long): TableStats =
    tempStats(g, truth.newScope(), mask)

  /** [[tempStats]] through a caller's oracle scope. */
  def tempStats(g: JoinGraph, scope: TrueCardinality#Scope, mask: Long): TableStats = {
    val orig  = g.origUnion(mask)
    val rows  = scope.card(orig)
    // Interface classes in *original graph* terms: use origIds valid on g.
    val cols = g.interfaceClasses(mask).map { case (c, _) =>
      val ndv = scope.classNdv(orig, c.origId)
      JoinGraph.tempColumn(c.origId) -> ColumnStats(rows, math.max(1L, ndv), 0L, Long.MaxValue, Vector.empty, Vector.empty)
    }.toMap
    TableStats(rows, cols)
  }
}

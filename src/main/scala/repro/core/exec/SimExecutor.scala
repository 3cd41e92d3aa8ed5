package repro.core.exec

import repro.core.opt.{CostModel, JoinGraph, JoinPlan, LeafPlan, Plan}
import repro.core.stats.Catalog
import repro.core.truth.TrueCardinality

/** Deterministic micro-simulation of plan execution.
  *
  * Re-prices a chosen plan with the *true* cardinality of every operator
  * (from [[TrueCardinality]]) and the runtime-side cost terms of
  * [[CostModel]] (broadcast replication to all partitions, spill penalties).
  * The plan's physical choices and join order were fixed by the planner from
  * *estimated* cardinalities, so a plan picked off a huge underestimate pays
  * its true price here — a mistaken broadcast join behaves like the paper's
  * mistaken nested-loop join in query 18a.
  *
  * Units are "row work units"; [[SimExecutor.toMillis]] converts them to a
  * nominal single-threaded runtime for readability (the paper's substrate is
  * a single-threaded row store).
  */
final class SimExecutor(cost: CostModel, catalog: Catalog) {

  /** Work to execute `plan` against the true data distribution. */
  def executionWork(g: JoinGraph, truth: TrueCardinality, plan: Plan): Double =
    executionWork(g, truth.newScope(), plan)

  /** Work to execute `plan` *and* write its result out as a temporary table
    * (the materialization step of re-optimization).
    */
  def materializationWork(g: JoinGraph, truth: TrueCardinality, plan: Plan): Double =
    materializationWork(g, truth.newScope(), plan)

  /** [[materializationWork]] through a caller's oracle scope. */
  def materializationWork(g: JoinGraph, truth: TrueCardinality#Scope, plan: Plan): Double =
    executionWork(g, truth, plan) + cost.writeFactor * truth.card(g.origUnion(plan.mask)).toDouble

  /** [[executionWork]] through a caller's oracle scope, which every node of
    * the plan shares: nested sub-joins reuse their relations' row indexes.
    */
  def executionWork(g: JoinGraph, truth: TrueCardinality#Scope, plan: Plan): Double = plan match {
    case l: LeafPlan =>
      val rel = g.rels(l.relIdx)
      // materialized temporaries are not in the base catalog; their stored
      // size is exactly the sub-join's true cardinality
      val stored = catalog.tables.get(rel.table).map(_.rowCount.toDouble)
        .getOrElse(truth.card(rel.origMask).toDouble)
      cost.scanCost(stored.toLong)
    case j: JoinPlan =>
      val lw    = executionWork(g, truth, j.left)
      val rw    = executionWork(g, truth, j.right)
      val lRows = truth.card(g.origUnion(j.left.mask)).toDouble
      val rRows = truth.card(g.origUnion(j.right.mask)).toDouble
      val out   = truth.card(g.origUnion(j.mask)).toDouble
      val build = if (j.buildLeft) lRows else rRows
      val probe = if (j.buildLeft) rRows else lRows
      lw + rw + cost.runtimeJoinWork(j.phys, build, probe, out)
  }
}

object SimExecutor {
  /** Nominal rows/ms of the simulated single-threaded engine. */
  val RowsPerMs: Double = 10000.0
  def toMillis(work: Double): Double = work / RowsPerMs
}

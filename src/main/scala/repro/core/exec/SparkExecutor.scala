package repro.core.exec

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import org.apache.spark.storage.StorageLevel

import repro.core.opt.{JoinGraph, JoinPlan, LeafPlan, Physical, Plan}

/** Executes a chosen plan for real on Spark.
  *
  * The join tree is built exactly as planned: DataFrame joins in the chosen
  * order, with a `broadcast()` hint on the build side when the planner chose
  * a broadcast hash join (Spark's auto-broadcast is disabled in this repo, so
  * physical choice stays with our planner — including its mistakes, which is
  * the point). Columns are prefixed `alias__` to keep self-joins unambiguous.
  */
final class SparkExecutor(spark: SparkSession, db: collection.Map[String, DataFrame]) {

  /** Build the DataFrame realizing `plan` (no action triggered). */
  def dataFrame(g: JoinGraph, plan: Plan): DataFrame = plan match {
    case l: LeafPlan =>
      val rel  = g.rels(l.relIdx)
      val base = db.getOrElse(rel.table, throw new NoSuchElementException(s"table ${rel.table}"))
      val filtered = rel.preds.foldLeft(base)((df, p) => df.filter(predColumn(p)))
      filtered.select(base.columns.map(c => col(c).as(s"${rel.alias}__$c")).toSeq: _*)
    case j: JoinPlan =>
      val lDf = dataFrame(g, j.left)
      val rDf = dataFrame(g, j.right)
      val conds = g.crossClasses(j.left.mask, j.right.mask).map { c =>
        val (li, lc) = c.members.find(m => (j.left.mask & (1L << m._1)) != 0).get
        val (ri, rc) = c.members.find(m => (j.right.mask & (1L << m._1)) != 0).get
        lDf(s"${g.rels(li).alias}__$lc") === rDf(s"${g.rels(ri).alias}__$rc")
      }
      require(conds.nonEmpty, s"cartesian product in plan for ${g.name}")
      val cond = conds.reduce(_ && _)
      j.phys match {
        case Physical.BroadcastHash =>
          if (j.buildLeft) broadcast(lDf).join(rDf, cond) else lDf.join(broadcast(rDf), cond)
        case Physical.ShuffleHash =>
          lDf.join(rDf, cond)
      }
  }

  private def predColumn(p: repro.workload.Pred): Column = p match {
    case repro.workload.EqPred(c, v)       => col(c) === v
    case repro.workload.InPred(c, vs)      => col(c).isin(vs: _*)
    case repro.workload.RangePred(c, l, h) => col(c) >= l && col(c) <= h
  }

  /** Execute the plan, returning (rowCount of the join, wall-clock millis). */
  def run(g: JoinGraph, plan: Plan): (Long, Double) = {
    val df = dataFrame(g, plan)
    val t0 = System.nanoTime()
    val n  = df.count()
    (n, (System.nanoTime() - t0) / 1e6)
  }

  /** Materialize the sub-plan as a temporary: project one column `c<origId>`
    * per interface class, persist, and force computation. Returns the
    * temporary DataFrame, its exact row count, and wall-clock millis.
    */
  def materialize(g: JoinGraph, plan: Plan): (DataFrame, Long, Double) = {
    val df    = dataFrame(g, plan)
    val iface = g.interfaceClasses(plan.mask)
    val proj =
      if (iface.nonEmpty)
        df.select(iface.map { case (c, (ri, rc)) =>
          col(s"${g.rels(ri).alias}__$rc").as(JoinGraph.tempColumn(c.origId))
        }: _*)
      else df.select(df.columns.take(1).map(col).toSeq: _*)
    val t0 = System.nanoTime()
    val cached = proj.persist(StorageLevel.MEMORY_AND_DISK)
    val n      = cached.count()
    (cached, n, (System.nanoTime() - t0) / 1e6)
  }
}

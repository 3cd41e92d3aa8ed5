package repro.core.opt

import scala.collection.mutable

import repro.core.ce.Estimator
import repro.core.stats.Catalog

// The planner and the stats estimator before DPccp and the per-graph
// estimator cache, kept as they were (only renamed): the independent
// reference that DPPlannerDiffSpec compares DPPlanner and StatsEstimator
// against.

/** Bushy dynamic-programming plan enumerator over connected subgraphs
  * (DPsize): the System-R family the paper studies, generalized to bushy
  * trees and with Cartesian products excluded — like PostgreSQL's standard
  * join search.
  *
  * The planner records one cardinality estimate per connected subset
  * (memoized, exactly like PostgreSQL computes one joinrel size per relation
  * set); `estimatesBySize` is therefore the per-query contribution to the
  * paper's Table I.
  */
final class ReferenceDPPlanner(cost: CostModel, catalog: Catalog) {

  /** Planning outcome. `planningNanos` is wall-clock spent in this call —
    * the paper's "planning time" component.
    */
  final case class Result(
      plan: Plan,
      estimates: Map[Long, Double],
      estimatesBySize: Map[Int, Int],
      planningNanos: Long,
  ) {
    def estRows(mask: Long): Double = estimates(mask)
  }

  def plan(g: JoinGraph, est: Estimator): Result = {
    val t0 = System.nanoTime()
    require(g.nRels >= 1, "empty graph")

    val cards = mutable.HashMap.empty[Long, Double]
    def card(mask: Long): Double = cards.getOrElseUpdate(mask, est.cardinality(g, mask))

    val best = mutable.HashMap.empty[Long, Plan]
    // size 1
    for (i <- 0 until g.nRels) {
      val m      = 1L << i
      val stored = catalog(g.rels(i).table).rowCount
      best(m) = LeafPlan(i, m, card(m), cost.scanCost(stored))
    }
    // connected subsets by size, grown by adjacent relations
    var frontier: Set[Long] = (0 until g.nRels).map(1L << _).toSet
    var size = 1
    while (size < g.nRels) {
      val next = mutable.HashSet.empty[Long]
      for (s <- frontier) {
        var nb = g.neighbors(s)
        while (nb != 0) {
          val i = java.lang.Long.numberOfTrailingZeros(nb)
          next += (s | (1L << i))
          nb &= nb - 1
        }
      }
      for (s <- next.toSeq.sorted) {
        val rows = card(s)
        var bestPlan: Plan = null
        // enumerate splits containing the lowest bit on the left
        val low  = java.lang.Long.lowestOneBit(s)
        val rest = s & ~low
        var sub  = rest
        while (sub != 0) {
          val l = s & ~sub // contains `low`
          val r = sub
          (best.get(l), best.get(r)) match {
            case (Some(lp), Some(rp)) if g.crossClasses(l, r).nonEmpty =>
              val (phys, buildLeft) = cost.choosePhysical(lp.estRows, rp.estRows)
              val build = if (buildLeft) lp.estRows else rp.estRows
              val probe = if (buildLeft) rp.estRows else lp.estRows
              val c     = lp.cost + rp.cost + cost.joinCost(phys, build, probe, rows)
              if (bestPlan == null || c < bestPlan.cost)
                bestPlan = JoinPlan(lp, rp, s, rows, c, phys, buildLeft)
            case _ =>
          }
          sub = (sub - 1) & rest
        }
        if (bestPlan != null) best(s) = bestPlan
      }
      frontier = next.toSet.filter(best.contains)
      size += 1
    }

    val top = best.getOrElse(
      g.fullMask,
      throw new IllegalStateException(s"query ${g.name}: join graph not connected"),
    )
    val bySize = cards.keysIterator.toVector
      .groupBy(java.lang.Long.bitCount)
      .view.mapValues(_.size).toMap
    Result(top, cards.toMap, bySize, System.nanoTime() - t0)
  }
}

/** The textbook estimator under the standard simplifying assumptions —
  * uniformity, predicate independence, and join-key inclusion:
  *
  *  - base relations: |R| × Π selectivity(pred) from per-column MCVs and
  *    equi-depth histograms;
  *  - joins: Π base estimates × Π over active equivalence classes of
  *    (1 / max ndv)^(k-1), the System-R / PostgreSQL distinct-value formula
  *    generalized to k class members.
  *
  * This is deliberately the paper's "PostgreSQL CE": accurate on base tables,
  * increasingly wrong up the join tree under skew and correlation.
  */
final class ReferenceStatsEstimator(val catalog: Catalog) extends Estimator {

  def baseRows(g: JoinGraph, i: Int): Double = {
    val rel = g.rels(i)
    val ts  = catalog(rel.table)
    rel.preds.foldLeft(ts.rowCount.toDouble)((r, p) => r * ts.column(p.column).selectivity(p))
  }

  /** ndv of a class member column, capped by the filtered row estimate. */
  private def effNdv(g: JoinGraph, i: Int, col: String): Double = {
    val ndv = catalog(g.rels(i).table).column(col).ndv.toDouble
    math.max(1.0, math.min(ndv, math.max(1.0, baseRows(g, i))))
  }

  /** Selectivity contribution of one class restricted to `mask`. */
  def classSelectivity(g: JoinGraph, c: GraphClass, mask: Long): Double = {
    val members = c.members.filter(m => (mask & (1L << m._1)) != 0)
    if (members.size < 2) 1.0
    else {
      val maxNdv = members.map { case (i, col) => effNdv(g, i, col) }.max
      math.pow(1.0 / maxNdv, members.size - 1.0)
    }
  }

  override def cardinality(g: JoinGraph, mask: Long): Double = {
    var rows = 1.0
    var m    = mask
    while (m != 0) {
      val i = java.lang.Long.numberOfTrailingZeros(m)
      rows *= baseRows(g, i)
      m &= m - 1
    }
    for (c <- g.classes) rows *= classSelectivity(g, c, mask)
    // PostgreSQL clamps every joinrel size estimate at one row; without this
    // floor, deep underestimates make further joins look free and the DP
    // chooses catastrophic orders far beyond what the paper observes.
    if (java.lang.Long.bitCount(mask) > 1) math.max(rows, 1.0) else math.max(rows, 1e-6)
  }

  /** Selectivity of joining relation `r` into subset `sub` (used by
    * perfect-(n) composition): class factors of sub∪{r} not already in sub.
    */
  def extendSelectivity(g: JoinGraph, sub: Long, r: Int): Double = {
    val all = sub | (1L << r)
    g.classes.foldLeft(1.0) { (s, c) =>
      s * classSelectivity(g, c, all) / classSelectivity(g, c, sub)
    }
  }
}

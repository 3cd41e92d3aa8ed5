package repro.core.opt

import repro.core.ce.Estimator
import repro.core.stats.Catalog

/** Bushy dynamic-programming plan enumerator over connected subgraphs: the
  * System-R family the paper studies, generalized to bushy trees and with
  * Cartesian products excluded — like PostgreSQL's standard join search.
  *
  * Enumeration is DPccp (Moerkotte & Neumann, "Analysis of Two Existing and
  * One New Dynamic Programming Algorithm for the Generation of Optimal Bushy
  * Join Trees without Cross Products", VLDB 2006). It visits each csg–cmp
  * pair once: a connected subset S1 and a connected, disjoint complement S2
  * adjacent to it. The order guarantees that both sides' best plans are final
  * before the pair is costed. Every pair is oriented so that the left input
  * holds the lowest relation of S1 ∪ S2, and costs
  * `left.cost + right.cost + joinCost`. **Tie-break:** among splits of equal
  * cost, the one whose right mask is numerically largest wins.
  *
  * The DP table is one `Array[Plan]` of `1 << nRels` entries, indexed by
  * subset mask; a connected subset's entry is its best plan, every other
  * entry is null. So a graph has at most [[DPPlanner.MaxRels]] relations
  * (2^20 entries take 4 MB; JOB-lite's largest query has 17).
  *
  * The planner records one cardinality estimate per connected subset (the
  * first time a pair produces it, exactly like PostgreSQL computes one
  * joinrel size per relation set); `estimatesBySize` is therefore the
  * per-query contribution to the paper's Table I. It is counted in one scan
  * of the table; the per-subset `estimates` map is built only when read.
  */
final class DPPlanner(cost: CostModel, catalog: Catalog) {

  /** Planning outcome. `planningNanos` is wall-clock spent in this call —
    * the paper's "planning time" component. It holds the call's DP table,
    * from which `estimates` is built on first read: keep the `plan`, not
    * the `Result`.
    */
  final class Result private[DPPlanner] (
      val plan: Plan,
      val estimatesBySize: Map[Int, Int],
      val planningNanos: Long,
      table: Array[Plan],
  ) {
    /** The estimate of every connected subset, by mask; built on first read. */
    lazy val estimates: Map[Long, Double] = {
      val b = Map.newBuilder[Long, Double]
      for (m <- table.indices if table(m) != null) b += m.toLong -> table(m).estRows
      b.result()
    }
  }

  def plan(g: JoinGraph, est: Estimator): Result = {
    val t0 = System.nanoTime()
    require(g.nRels >= 1, "empty graph")
    require(g.nRels <= DPPlanner.MaxRels,
      s"query ${g.name}: ${g.nRels} relations; the planner takes at most ${DPPlanner.MaxRels}")

    val best = new Ccp(g, est).run()
    val top  = best(g.fullMask.toInt)
    if (top == null) throw new IllegalStateException(s"query ${g.name}: join graph not connected")
    val bySize = new Array[Int](g.nRels + 1)
    for (m <- best.indices if best(m) != null) bySize(Integer.bitCount(m)) += 1
    new Result(top, bySize.indices.filter(bySize(_) > 0).map(k => k -> bySize(k)).toMap,
      System.nanoTime() - t0, best)
  }

  /** One planning call's DP table: the best plan of every connected subset. */
  private final class Ccp(g: JoinGraph, est: Estimator) {
    private val best = new Array[Plan](1 << g.nRels)

    def run(): Array[Plan] = {
      for (i <- 0 until g.nRels) {
        val m = 1L << i
        best(m.toInt) = LeafPlan(i, m, est.cardinality(g, m), cost.scanCost(catalog(g.rels(i).table).rowCount))
      }
      // csgs whose lowest relation is i, for i descending
      var i = g.nRels - 1
      while (i >= 0) {
        val v = 1L << i
        csg(v)
        grow(0L, v, v | (v - 1))
        i -= 1
      }
      best
    }

    /** Extend the connected set `s` by every non-empty subset of its
      * neighbours outside `x`, a subset before its supersets; then grow each
      * extension further, with those neighbours excluded. An extension is a
      * new csg when `s1` is 0, otherwise a complement of the csg `s1`.
      */
    private def grow(s1: Long, s: Long, x: Long): Unit = {
      val nb  = g.neighbors(s) & ~x
      var sub = nb & -nb
      while (sub != 0) {
        if (s1 == 0) csg(s | sub) else join(s1, s | sub)
        sub = (sub - nb) & nb
      }
      sub = nb & -nb
      while (sub != 0) {
        grow(s1, s | sub, x | nb)
        sub = (sub - nb) & nb
      }
    }

    /** Pair the csg `s1` with each complement whose relations all lie above
      * min(`s1`): grown from each neighbour v, highest first, excluding the
      * lower neighbours.
      */
    private def csg(s1: Long): Unit = {
      val x    = s1 | (java.lang.Long.lowestOneBit(s1) - 1)
      val nb   = g.neighbors(s1) & ~x
      var rest = nb
      while (rest != 0) {
        val v = java.lang.Long.highestOneBit(rest)
        join(s1, v)
        grow(s1, v, x | (nb & (v | (v - 1))))
        rest &= ~v
      }
    }

    /** Cost the join of the csg–cmp pair (`l`, `r`) into their union. The
      * complement `r` lies above min(`l`), so `l` holds the lowest relation.
      */
    private def join(l: Long, r: Long): Unit = {
      val s    = l | r
      val lp   = best(l.toInt)
      val rp   = best(r.toInt)
      val cur  = best(s.toInt).asInstanceOf[JoinPlan]
      val rows = if (cur == null) est.cardinality(g, s) else cur.estRows
      val (phys, buildLeft) = cost.choosePhysical(lp.estRows, rp.estRows)
      val build = if (buildLeft) lp.estRows else rp.estRows
      val probe = if (buildLeft) rp.estRows else lp.estRows
      val c     = lp.cost + rp.cost + cost.joinCost(phys, build, probe, rows)
      if (cur == null || c < cur.cost || (c == cur.cost && r > cur.right.mask))
        best(s.toInt) = JoinPlan(lp, rp, s, rows, c, phys, buildLeft)
    }
  }
}

object DPPlanner {
  /** The most relations a graph may have: the DP table has `1 << nRels`
    * entries.
    */
  val MaxRels = 20
}

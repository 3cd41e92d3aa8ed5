package repro.core.ce

import scala.collection.mutable

import repro.core.opt.{GraphClass, JoinGraph}
import repro.core.stats.Catalog
import repro.core.truth.TrueCardinality

/** Cardinality estimator interface: rows of the (filtered) join of the
  * relation subset `mask` of graph `g`. Implementations must be deterministic
  * and side-effect free apart from internal memoization.
  */
trait Estimator {
  def cardinality(g: JoinGraph, mask: Long): Double
}

/** Q-error (Moerkotte et al.), the paper's re-optimization trigger metric. */
object QError {
  def apply(truth: Double, est: Double): Double = {
    val t = math.max(truth, 1.0)
    val e = math.max(est, 1.0)
    math.max(t / e, e / t)
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
final class StatsEstimator(val catalog: Catalog) extends Estimator {

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

/** The paper's perfect-(n) construct: an oracle supplies exact cardinalities
  * for joins of at most n *original* relations; larger joins are composed
  * recursively from the (now exact) sub-estimates —
  * est(S) = est(S∖{r}) · base(r) · classSelectivity — mirroring how the
  * modified PostgreSQL derives joinrel sizes from its inputs, so estimate
  * quality improves monotonically with n (paper §III-B).
  *
  * n = 0 degrades to [[StatsEstimator]]; n ≥ 1 uses exact base cardinalities.
  * Subset size is measured in original relations (`origMask` popcount), so
  * the construct keeps its meaning on re-optimized (contracted) graphs.
  * An instance serves one graph (one DP run; the re-optimization loop makes
  * one per step), so its memo and oracle scope are keyed by mask alone.
  */
final class PerfectNEstimator(n: Int, truth: TrueCardinality, stats: StatsEstimator)
    extends Estimator {

  private val scope = truth.newScope()
  /** Composed estimates by mask, of the one graph this instance is asked about. */
  private val memo  = mutable.HashMap.empty[Long, Double]
  private var graph: JoinGraph = _

  private def baseRows(g: JoinGraph, i: Int): Double =
    if (n >= 1) scope.card(g.rels(i).origMask).toDouble
    else stats.baseRows(g, i)

  override def cardinality(g: JoinGraph, mask: Long): Double = {
    if (graph ne g) {
      require(graph == null || graph == g,
        s"perfect-($n) estimator of ${graph.name} asked about another graph ${g.name}")
      graph = g
    }
    val orig = g.origUnion(mask)
    if (java.lang.Long.bitCount(orig) <= n) scope.card(orig).toDouble
    else memo.getOrElseUpdate(mask, {
      if (java.lang.Long.bitCount(mask) == 1)
        baseRows(g, java.lang.Long.numberOfTrailingZeros(mask))
      else {
        // remove the highest relation keeping the rest connected
        var m = mask
        var r = -1
        while (m != 0 && r < 0) {
          val i = 63 - java.lang.Long.numberOfLeadingZeros(m)
          if (g.connected(mask & ~(1L << i))) r = i else m &= ~(1L << i)
        }
        if (r < 0) r = 63 - java.lang.Long.numberOfLeadingZeros(mask)
        val rest = mask & ~(1L << r)
        // same one-row clamp as PostgreSQL applies to every joinrel estimate
        math.max(1.0, cardinality(g, rest) * baseRows(g, r) * stats.extendSelectivity(g, rest, r))
      }
    })
  }
}

/** Oracle estimator: always exact (the paper's perfect-(17)). */
final class PerfectEstimator(truth: TrueCardinality) extends Estimator {
  private val scope = truth.newScope()
  override def cardinality(g: JoinGraph, mask: Long): Double =
    scope.card(g.origUnion(mask)).toDouble
}

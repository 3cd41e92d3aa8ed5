package repro.core.ce

import scala.collection.mutable

import repro.core.opt.JoinGraph
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
  *
  * An instance computes the per-graph terms (filtered base rows, capped
  * ndvs) once for the graph it was last asked about.
  */
final class StatsEstimator(val catalog: Catalog) extends Estimator {

  /** What the formula needs of one graph, computed once: each relation's
    * filtered row estimate and, per class, its members' relations and ndvs.
    */
  private final class GraphStats(g: JoinGraph) {
    val base: Array[Double] = Array.tabulate(g.nRels) { i =>
      val rel = g.rels(i)
      val ts  = catalog(rel.table)
      rel.preds.foldLeft(ts.rowCount.toDouble)((r, p) => r * ts.column(p.column).selectivity(p))
    }
    val memberRel: Array[Array[Int]] = g.classes.map(_.members.map(_._1).toArray).toArray
    /** ndv of a class member column, capped by the filtered row estimate. */
    val memberNdv: Array[Array[Double]] = g.classes.map(_.members.map { case (i, col) =>
      val ndv = catalog(g.rels(i).table).column(col).ndv.toDouble
      math.max(1.0, math.min(ndv, math.max(1.0, base(i))))
    }.toArray).toArray

    /** Selectivity contribution of class `k` restricted to `mask`. */
    def classSelectivity(k: Int, mask: Long): Double = {
      val rels   = memberRel(k)
      var n      = 0
      var maxNdv = 0.0
      var j      = 0
      while (j < rels.length) {
        if ((mask & (1L << rels(j))) != 0) { n += 1; maxNdv = math.max(maxNdv, memberNdv(k)(j)) }
        j += 1
      }
      if (n < 2) 1.0 else math.pow(1.0 / maxNdv, n - 1.0)
    }
  }

  private var graph: JoinGraph = _
  private var graphStats: GraphStats = _

  private def statsOf(g: JoinGraph): GraphStats = {
    if (g ne graph) { graphStats = new GraphStats(g); graph = g }
    graphStats
  }

  def baseRows(g: JoinGraph, i: Int): Double = statsOf(g).base(i)

  override def cardinality(g: JoinGraph, mask: Long): Double = {
    val gs   = statsOf(g)
    var rows = 1.0
    var m    = mask
    while (m != 0) {
      rows *= gs.base(java.lang.Long.numberOfTrailingZeros(m))
      m &= m - 1
    }
    var k = 0
    while (k < gs.memberRel.length) { rows *= gs.classSelectivity(k, mask); k += 1 }
    // PostgreSQL clamps every joinrel size estimate at one row; without this
    // floor, deep underestimates make further joins look free and the DP
    // chooses catastrophic orders far beyond what the paper observes.
    if (java.lang.Long.bitCount(mask) > 1) math.max(rows, 1.0) else math.max(rows, 1e-6)
  }

  /** Selectivity of joining relation `r` into subset `sub` (used by
    * perfect-(n) composition): class factors of sub∪{r} not already in sub.
    */
  def extendSelectivity(g: JoinGraph, sub: Long, r: Int): Double = {
    val gs  = statsOf(g)
    val all = sub | (1L << r)
    var s   = 1.0
    var k   = 0
    while (k < gs.memberRel.length) {
      s = s * gs.classSelectivity(k, all) / gs.classSelectivity(k, sub)
      k += 1
    }
    s
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

package repro.core.truth

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.core.data.LocalDB
import repro.core.opt.JoinGraph

// The oracle before its rewrite on primitive tuple maps, kept as it was (only
// renamed): the independent reference that TrueCardinalityDiffSpec compares
// TrueCardinality against.

/** Exact cardinalities of every connected sub-join of one query.
  *
  * This is the reproduction's stand-in for the paper's two oracles: the
  * perfect-(n) cardinality injector (§III) and the EXPLAIN ANALYZE output the
  * re-optimization simulation inspects (§V). Both need |⋈ S| for arbitrary
  * connected relation subsets S of a query.
  *
  * |⋈ S| is computed by *variable elimination* along a relation chain: the
  * sub-join of a chain prefix is compressed to a map
  * `frontier-values -> row multiplicity`, where the frontier is only the set
  * of join equivalence classes connecting the prefix to the *remaining
  * relations of S* (classes dangling to relations outside S are irrelevant
  * for the count and are marginalized away immediately). The chain order
  * greedily absorbs relations that close open classes (dimensions right
  * after their fact), so frontiers stay near-singleton (`movie_id`-sized)
  * even for subsets whose join result has billions of rows — which is what
  * makes perfect-(17) over 113 queries feasible. The paper obtained the same
  * numbers by instrumenting executions offline.
  *
  * Instances are keyed to the *original* [[JoinGraph]] of a query; contracted
  * (re-optimized) graphs query it through original-relation masks.
  */
final class ReferenceCardinality(val graph: JoinGraph, db: LocalDB) {

  private type Key = ArraySeq[Long]

  private val cardCache = mutable.HashMap.empty[Long, Long]
  private val ndvCache  = mutable.HashMap.empty[(Long, Int), Long]

  /** Filtered row indices per relation (the relation's local predicates). */
  private val filtered: Vector[Array[Int]] = graph.rels.map { rel =>
    val t     = db(rel.table)
    val preds = rel.preds.map(p => (t.col(p.column), p))
    val buf   = new mutable.ArrayBuilder.ofInt
    var r = 0
    while (r < t.rowCount) {
      var ok = true
      var pi = 0
      while (ok && pi < preds.length) { ok = preds(pi)._2.eval(preds(pi)._1(r)); pi += 1 }
      if (ok) buf += r
      r += 1
    }
    buf.result()
  }

  /** classes (by position in graph.classes) touching relation i. */
  private val relClasses: Vector[Vector[Int]] =
    Vector.tabulate(graph.nRels) { i =>
      graph.classes.zipWithIndex.collect { case (c, ci) if (c.relMask & (1L << i)) != 0 => ci }
    }

  /** column of class ci on relation i. */
  private def classCol(ci: Int, i: Int): String =
    graph.classes(ci).members.find(_._1 == i).get._2

  /** Greedy elimination order for the relations of `mask`: start at the most
    * selective relation; repeatedly append the adjacent relation that leaves
    * the fewest open frontier classes (ties: fewer filtered rows). Relations
    * count as adjacent via classes with ≥ 2 members inside `mask`.
    */
  private def chainOrder(mask: Long): Vector[Int] = {
    val rels = (0 until graph.nRels).filter(i => (mask & (1L << i)) != 0).toVector
    if (rels.size == 1) return rels
    // classes internal to mask: >=2 members inside
    val internal: Vector[Int] = graph.classes.indices.toVector.filter { ci =>
      java.lang.Long.bitCount(graph.classes(ci).relMask & mask) >= 2
    }
    val classMaskIn: Map[Int, Long] = internal.map(ci => ci -> (graph.classes(ci).relMask & mask)).toMap

    def frontierSize(prefix: Long): Int =
      internal.count { ci =>
        val cm = classMaskIn(ci)
        (cm & prefix) != 0 && (cm & mask & ~prefix) != 0
      }

    val start = rels.minBy(i => filtered(i).length)
    val order = mutable.ArrayBuffer(start)
    var prefix = 1L << start
    while (order.size < rels.size) {
      val cands = rels.filter { i =>
        (prefix & (1L << i)) == 0 &&
        relClasses(i).exists(ci => classMaskIn.contains(ci) && (classMaskIn(ci) & prefix) != 0)
      }
      require(cands.nonEmpty, s"mask $mask not connected at prefix $prefix")
      val next = cands.minBy(i => (frontierSize(prefix | (1L << i)), filtered(i).length, i))
      order += next
      prefix |= 1L << next
    }
    order.toVector
  }

  /** Eliminate `mask` along the greedy chain. If `keepClass >= 0` (a class
    * index into graph.classes), that class's value is retained in the
    * frontier throughout; the result map is then keyed by it.
    * Returns the final map (empty-key single entry when keepClass < 0).
    */
  private def eliminate(mask: Long, keepClass: Int): mutable.HashMap[Key, Long] = {
    require(mask != 0, "empty mask")
    val order = chainOrder(mask)
    val internal: Set[Int] = graph.classes.indices.filter { ci =>
      java.lang.Long.bitCount(graph.classes(ci).relMask & mask) >= 2
    }.toSet

    /** frontier classes after absorbing `prefix`: internal classes spanning
      * the cut, plus keepClass once touched.
      */
    def frontier(prefix: Long): Vector[Int] = {
      val cut = graph.classes.indices.filter { ci =>
        internal(ci) && (graph.classes(ci).relMask & prefix) != 0 &&
        (graph.classes(ci).relMask & mask & ~prefix) != 0
      }
      val keep =
        if (keepClass >= 0 && (graph.classes(keepClass).relMask & prefix) != 0) Vector(keepClass)
        else Vector.empty
      (cut ++ keep).distinct.sorted.toVector
    }

    var prefix  = 1L << order.head
    var keyCls  = frontier(prefix)
    var current = {
      val i    = order.head
      val t    = db(graph.rels(i).table)
      val cols = keyCls.map(ci => t.col(classCol(ci, i)))
      val m    = mutable.HashMap.empty[Key, Long]
      for (r <- filtered(i)) {
        val k = ArraySeq.unsafeWrapArray(Array.tabulate(cols.length)(x => cols(x)(r)))
        m.updateWith(k)(c => Some(c.getOrElse(0L) + 1L))
      }
      m
    }

    for (i <- order.drop(1)) {
      val newPrefix = prefix | (1L << i)
      val newKeyCls = frontier(newPrefix)
      val t = db(graph.rels(i).table)
      // classes joining r to the prefix: internal, touched by both
      val joinCls = relClasses(i).filter(ci =>
        internal(ci) && (graph.classes(ci).relMask & prefix) != 0 && keyCls.contains(ci))
      // sanity: all prefix-side join classes must be on the frontier
      val joinPosInKey = joinCls.map(keyCls.indexOf)
      require(joinPosInKey.forall(_ >= 0), s"join class missing from frontier for rel $i")
      // output key composition: from current (classes already in keyCls) or from r
      val outFromCur = newKeyCls.map(keyCls.indexOf)
      val rCols      = newKeyCls.map { ci =>
        if (relClasses(i).contains(ci)) t.col(classCol(ci, i)) else null
      }
      val joinColsR = joinCls.map(ci => t.col(classCol(ci, i)))
      // group r's filtered rows by (join key, contributed output parts)
      val rGroups = mutable.HashMap.empty[Key, mutable.HashMap[Key, Long]]
      for (r <- filtered(i)) {
        val jk = ArraySeq.unsafeWrapArray(Array.tabulate(joinColsR.length)(x => joinColsR(x)(r)))
        val contrib = ArraySeq.unsafeWrapArray(
          Array.tabulate(newKeyCls.length)(x =>
            if (outFromCur(x) < 0 && rCols(x) != null) rCols(x)(r) else 0L))
        rGroups.getOrElseUpdate(jk, mutable.HashMap.empty)
          .updateWith(contrib)(c => Some(c.getOrElse(0L) + 1L))
      }
      val out = mutable.HashMap.empty[Key, Long]
      for ((k, cnt) <- current) {
        val jk = ArraySeq.unsafeWrapArray(Array.tabulate(joinPosInKey.length)(x => k(joinPosInKey(x))))
        rGroups.get(jk) match {
          case Some(groups) =>
            for ((contrib, rcnt) <- groups) {
              val outArr = new Array[Long](newKeyCls.length)
              var x = 0
              while (x < newKeyCls.length) {
                outArr(x) = if (outFromCur(x) >= 0) k(outFromCur(x)) else contrib(x)
                x += 1
              }
              out.updateWith(ArraySeq.unsafeWrapArray(outArr))(c =>
                Some(c.getOrElse(0L) + cnt * rcnt))
            }
          case None =>
        }
      }
      current = out
      prefix = newPrefix
      keyCls = newKeyCls
    }
    current
  }

  /** Exact |⋈ S| (with all base filters applied) for connected subset S. */
  def card(mask: Long): Long = cardCache.getOrElseUpdate(mask, {
    require(graph.connected(mask), s"not a connected subset: $mask")
    eliminate(mask, keepClass = -1).valuesIterator.sum
  })

  /** Exact number of distinct values of class `origId` (which must touch S)
    * in ⋈ S.
    */
  def classNdv(mask: Long, origId: Int): Long = ndvCache.getOrElseUpdate((mask, origId), {
    require(graph.connected(mask), s"not a connected subset: $mask")
    val ci = graph.classes.indexWhere(_.origId == origId)
    require(ci >= 0 && (graph.classes(ci).relMask & mask) != 0,
      s"class $origId does not touch mask $mask")
    val m = eliminate(mask, keepClass = ci)
    // final key is exactly (keepClass); count distinct values with rows
    m.count(_._2 > 0).toLong
  })

  /** Number of distinct subsets whose cardinality has been computed. */
  def memoSize: Int = cardCache.size
}

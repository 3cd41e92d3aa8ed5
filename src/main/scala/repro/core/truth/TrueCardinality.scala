package repro.core.truth

import scala.collection.mutable

import repro.core.data.LocalDB
import repro.core.opt.JoinGraph

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
  * Class sets are `Long` bitmasks over `graph.classes`, and every map is a
  * [[TupleMap]] of primitive `Long` tuples. Absorbing relation r is a hash
  * join: each prefix tuple probes an index of r's filtered rows keyed by the
  * classes joining r to the prefix (Yannakakis, VLDB 1981). One index per
  * (relation, join classes) serves every subset and every set of classes r
  * adds, so indexes are built once per [[Scope]]: a scope lasts one planning
  * or loop run and is dropped with it. Its owners are the perfect
  * estimators (one DP run each) and the loop's backend: a
  * [[repro.core.reopt.SimBackend]] or [[repro.core.reopt.SparkBackend]]
  * serves its pricing, its temp statistics and the loop's trigger lookups
  * (`ExecBackend.trueCards`) from one scope per loop run. The oracle itself
  * keeps only the `card`/`classNdv` count memos:
  * callers keep oracles alive for a whole query, and the per-relation
  * structures of a 17-relation query are far larger than its memo (held by
  * the oracle, the grouped rows that preceded the indexes took perfbench's
  * live-heap peak from 63 to 119 MB on `perfect-oracle` and from 71 to
  * 238 MB on `reopt`).
  *
  * `classNdv(S, c)` (a temp table's ANALYZE) eliminates along the same
  * chain and keeps c's value in the frontier once touched, except that when
  * c has a single member relation r in S and S∖{r} is connected, S∖{r} is
  * eliminated first and r absorbed last: c then enters the frontier only at
  * the final probe. The distinct count is exact either way.
  *
  * Instances are keyed to the *original* [[JoinGraph]] of a query; contracted
  * (re-optimized) graphs query it through original-relation masks.
  */
final class TrueCardinality(val graph: JoinGraph, db: LocalDB) {
  require(graph.classes.size <= 64, s"${graph.name}: at most 64 join classes")

  private val cardCache = mutable.HashMap.empty[Long, Long]
  private val ndvCache  = mutable.HashMap.empty[(Long, Int), Long]

  /** Filtered row ids per relation (its local predicates), or null for a
    * relation without predicates: all of its rows.
    */
  private val filtered: Array[Array[Int]] = graph.rels.map { rel =>
    if (rel.preds.isEmpty) null
    else {
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
  }.toArray

  /** Filtered row count per relation. */
  private val nRows: Array[Int] = Array.tabulate(graph.nRels)(i =>
    if (filtered(i) == null) db(graph.rels(i).table).rowCount else filtered(i).length)

  /** Row id of relation i's k-th filtered row. */
  private def rowId(i: Int, k: Int): Int = {
    val f = filtered(i)
    if (f == null) k else f(k)
  }

  /** Classes (bitmask over graph.classes) touching relation i. */
  private val relClasses: Array[Long] = Array.tabulate(graph.nRels) { i =>
    graph.classes.indices.foldLeft(0L)((m, ci) =>
      if ((graph.classes(ci).relMask & (1L << i)) != 0) m | (1L << ci) else m)
  }

  /** Column of class ci on relation i. */
  private def classCol(ci: Int, i: Int): Array[Long] =
    db(graph.rels(i).table).col(graph.classes(ci).members.find(_._1 == i).get._2)

  /** Classes touching some relation of `mask`. */
  private def touching(mask: Long): Long = {
    var m = mask; var cs = 0L
    while (m != 0) { cs |= relClasses(java.lang.Long.numberOfTrailingZeros(m)); m &= m - 1 }
    cs
  }

  /** Classes with ≥ 2 members inside `mask`. */
  private def internal(mask: Long): Long = {
    var cs = 0L
    for (ci <- graph.classes.indices)
      if (java.lang.Long.bitCount(graph.classes(ci).relMask & mask) >= 2) cs |= 1L << ci
    cs
  }

  /** Frontier classes of chain prefix `prefix` of `mask`: internal classes
    * spanning the cut, plus `keepClass` once touched.
    */
  private[truth] def frontier(mask: Long, prefix: Long, keepClass: Int): Long = {
    val cut  = internal(mask) & touching(prefix) & touching(mask & ~prefix)
    val keep = if (keepClass >= 0) touching(prefix) & (1L << keepClass) else 0L
    cut | keep
  }

  /** Greedy elimination order for the relations of `mask`: start at the most
    * selective relation; repeatedly append the adjacent relation that leaves
    * the fewest open frontier classes (ties: fewer filtered rows, then lower
    * index). Relations count as adjacent via classes with ≥ 2 members inside
    * `mask`.
    */
  private[truth] def chainOrder(mask: Long): Array[Int] = {
    val inner = internal(mask)
    val order = new Array[Int](java.lang.Long.bitCount(mask))
    var m = mask
    var start = -1
    while (m != 0) {
      val i = java.lang.Long.numberOfTrailingZeros(m)
      if (start < 0 || nRows(i) < nRows(start)) start = i
      m &= m - 1
    }
    order(0) = start
    var prefix = 1L << start
    var k = 1
    while (k < order.length) {
      val reach = inner & touching(prefix)
      var next = -1; var nextOpen = 0; var nextRows = 0
      var cands = mask & ~prefix
      while (cands != 0) {
        val i = java.lang.Long.numberOfTrailingZeros(cands)
        if ((relClasses(i) & reach) != 0) {
          val p    = prefix | (1L << i)
          val open = java.lang.Long.bitCount(inner & touching(p) & touching(mask & ~p))
          val rows = nRows(i)
          if (next < 0 || open < nextOpen || (open == nextOpen && rows < nextRows)) {
            next = i; nextOpen = open; nextRows = rows
          }
        }
        cands &= cands - 1
      }
      require(next >= 0, s"mask $mask not connected at prefix $prefix")
      order(k) = next
      prefix |= 1L << next
      k += 1
    }
    order
  }

  /** Relation i's filtered rows projected onto the classes `cs` (ascending
    * class order), with the row count of each distinct tuple. If `gid` is
    * given, its k-th entry is set to the entry of the k-th filtered row.
    */
  private def project(i: Int, cs: Long, gid: Array[Int] = null): TupleMap = {
    val cols  = classList(cs).map(classCol(_, i))
    val w     = cols.length
    val n     = nRows(i)
    val out   = new TupleMap(w, n)
    val tuple = new Array[Long](w)
    var k = 0
    while (k < n) {
      val r = rowId(i, k)
      var x = 0
      while (x < w) { tuple(x) = cols(x)(r); x += 1 }
      val e = out.add(tuple, 0, 1L)
      if (gid != null) gid(k) = e
      k += 1
    }
    out
  }

  /** Relation i's filtered row ids grouped by their values of the classes
    * `join`: a counting sort by group.
    */
  private def buildIndex(i: Int, join: Long): RowIndex = {
    val n    = nRows(i)
    val gid  = new Array[Int](n)
    val keys = project(i, join, gid)
    // start(g) holds group g's end, and moves down to its start as the
    // group's rows are placed, last row first
    val start = new Array[Int](keys.size + 1)
    var end = 0
    for (g <- 0 until keys.size) { end += keys.vals(g).toInt; start(g) = end }
    start(keys.size) = n
    val rows = new Array[Int](n)
    var k = n - 1
    while (k >= 0) {
      val g = gid(k)
      start(g) -= 1
      rows(start(g)) = rowId(i, k)
      k -= 1
    }
    new RowIndex(keys, start, rows)
  }

  /** Elimination order for the distinct values of class ci in ⋈ `mask`. If
    * ci has a single member relation r in `mask` and the rest of `mask` is
    * connected, the rest's chain comes first and r last, so ci enters the
    * frontier only at the final probe. Otherwise it is the `card` chain, and
    * ci stays in the frontier from the first relation touching it. An exact
    * distinct count does not depend on the order.
    */
  private[truth] def ndvOrder(mask: Long, ci: Int): Array[Int] = {
    val members = graph.classes(ci).relMask & mask
    val rest    = mask & ~members
    if (java.lang.Long.bitCount(members) == 1 && graph.connected(rest))
      chainOrder(rest) :+ java.lang.Long.numberOfTrailingZeros(members)
    else chainOrder(mask)
  }

  /** Eliminate `mask` along `order`, a chain of its relations in which each
    * relation joins an earlier one. If `keepClass >= 0` (a class index into
    * graph.classes), that class's value is retained in the frontier once
    * touched. Returns the row count of each final frontier tuple: one count
    * (or none) when keepClass < 0, else one per kept value.
    */
  private def eliminate(order: Array[Int], mask: Long, keepClass: Int, scope: Scope): Array[Long] = {
    require(mask != 0, "empty mask")
    var prefix = 1L << order(0)
    var key    = frontier(mask, prefix, keepClass)
    val first  = project(order(0), key)
    var keys   = first.keys
    var vals   = first.vals
    var n      = first.size

    var k = 1
    while (k < order.length) {
      val i      = order(k)
      prefix    |= 1L << i
      val newKey = frontier(mask, prefix, keepClass)
      val join   = relClasses(i) & key   // every class joining i to the prefix is on the frontier
      val added  = newKey & ~key          // classes first touched by i
      val index  = scope.index(i, join)
      val w      = java.lang.Long.bitCount(key)
      val jPos   = classList(join).map(position(key, _))
      val aCols  = classList(added).map(classCol(_, i))
      // each output position reads the prefix's tuple (>= 0) or i's column ~pos
      val src    = classList(newKey).map(ci =>
        if ((key & (1L << ci)) != 0) position(key, ci) else ~position(added, ci))
      val jk     = new Array[Long](jPos.length)
      val outKey = new Array[Long](src.length)
      val out    = new TupleMap(src.length, if (src.isEmpty) 1 else n)
      var e = 0
      while (e < n) {
        var x = 0
        while (x < jPos.length) { jk(x) = keys(e * w + jPos(x)); x += 1 }
        val g = index.keys.find(jk, 0)
        if (g >= 0) {
          val cnt = vals(e)
          if (added == 0) {
            // the output tuple is the prefix's: the whole group matches it
            x = 0
            while (x < src.length) { outKey(x) = keys(e * w + src(x)); x += 1 }
            out.add(outKey, 0, cnt * index.keys.vals(g))
          } else {
            var t = index.start(g)
            while (t < index.start(g + 1)) {
              val r = index.rows(t)
              x = 0
              while (x < src.length) {
                val s = src(x)
                outKey(x) = if (s >= 0) keys(e * w + s) else aCols(~s)(r)
                x += 1
              }
              out.add(outKey, 0, cnt)
              t += 1
            }
          }
        }
        e += 1
      }
      keys = out.keys; vals = out.vals; n = out.size
      key = newKey
      k += 1
    }
    java.util.Arrays.copyOf(vals, n)
  }

  /** A fresh, empty scope for one planning or loop run. */
  def newScope(): Scope = new Scope

  /** Exact |⋈ S| (with all base filters applied) for connected subset S. */
  def card(mask: Long): Long = newScope().card(mask)

  /** Exact number of distinct values of class `origId` (which must touch S)
    * in ⋈ S.
    */
  def classNdv(mask: Long, origId: Int): Long = newScope().classNdv(mask, origId)

  /** Number of distinct subsets whose cardinality has been computed. */
  def memoSize: Int = cardCache.size

  /** The oracle's queries within one planning or loop run, sharing the
    * relation row indexes they build. Counts are memoized in the oracle, so
    * they outlive the scope; the indexes do not. The scope's owner (a perfect
    * estimator, or a loop's backend for its pricing, temp statistics and
    * trigger) drops it with its run.
    */
  final class Scope private[TrueCardinality] () {
    private val indexes = Array.fill(graph.nRels)(mutable.LongMap.empty[RowIndex])
    private var held    = 0L

    /** Rows this scope has indexed, summed over its indexes. */
    def entries: Long = held

    /** Relation i's filtered rows indexed by the classes `join`. */
    private[truth] def index(i: Int, join: Long): RowIndex =
      indexes(i).getOrElseUpdate(join, {
        val x = buildIndex(i, join)
        held += x.rows.length
        x
      })

    /** Exact |⋈ S| (with all base filters applied) for connected subset S. */
    def card(mask: Long): Long = cardCache.getOrElseUpdate(mask, {
      require(graph.connected(mask), s"not a connected subset: $mask")
      if (java.lang.Long.bitCount(mask) == 1) nRows(java.lang.Long.numberOfTrailingZeros(mask)).toLong
      else eliminate(chainOrder(mask), mask, keepClass = -1, this).sum
    })

    /** Exact number of distinct values of class `origId` (which must touch S)
      * in ⋈ S.
      */
    def classNdv(mask: Long, origId: Int): Long = ndvCache.getOrElseUpdate((mask, origId), {
      require(graph.connected(mask), s"not a connected subset: $mask")
      val ci = graph.classes.indexWhere(_.origId == origId)
      require(ci >= 0 && (graph.classes(ci).relMask & mask) != 0,
        s"class $origId does not touch mask $mask")
      // final key is exactly (keepClass); count distinct values with rows
      eliminate(ndvOrder(mask, ci), mask, keepClass = ci, this).count(_ > 0).toLong
    })
  }

  /** Class indices of a class bitmask, ascending. */
  private def classList(cs: Long): Array[Int] = {
    val a = new Array[Int](java.lang.Long.bitCount(cs))
    var m = cs; var x = 0
    while (m != 0) { a(x) = java.lang.Long.numberOfTrailingZeros(m); m &= m - 1; x += 1 }
    a
  }

  /** Position of class ci within the ascending tuple of class set `cs`. */
  private def position(cs: Long, ci: Int): Int = java.lang.Long.bitCount(cs & ((1L << ci) - 1))
}

/** One relation's filtered row ids grouped by their join-class values, in
  * CSR layout: group g (entry g of `keys`, whose value is the group's size)
  * holds the row ids `rows(start(g) until start(g + 1))`, ascending.
  */
private[truth] final class RowIndex(val keys: TupleMap, val start: Array[Int], val rows: Array[Int])

/** Insertion-ordered, open-addressing map from fixed-width `Long` tuples
  * (width 0 … k) to `Long` sums. Entry e's key is
  * `keys(e * width until (e + 1) * width)` and its value `vals(e)`; entries
  * keep their insertion order. Linear probing on a power-of-two slot table
  * kept at most half full.
  */
private[truth] final class TupleMap(val width: Int, expected: Int) {
  private var slots: Array[Int] = new Array[Int](TupleMap.slotsFor(expected)) // entry + 1; 0 = empty
  private var shift: Int        = 64 - Integer.numberOfTrailingZeros(slots.length)
  var keys: Array[Long]         = new Array[Long](math.max(expected, 1) * width)
  var vals: Array[Long]         = new Array[Long](math.max(expected, 1))
  var size: Int                 = 0

  private def slotOf(a: Array[Long], off: Int): Int = {
    var h = 0L
    var x = 0
    while (x < width) { h = (h + a(off + x)) * 0x9E3779B97F4A7C15L; x += 1 }
    // Fibonacci hashing: the product's top bits are its best mixed
    (h >>> shift).toInt
  }

  private def sameKey(e: Int, a: Array[Long], off: Int): Boolean = {
    var x = 0
    while (x < width && keys(e * width + x) == a(off + x)) x += 1
    x == width
  }

  /** Index of the entry keyed `a(off until off + width)`, or -1. */
  def find(a: Array[Long], off: Int): Int = {
    var s = slotOf(a, off)
    while (true) {
      val e = slots(s) - 1
      if (e < 0) return -1
      if (sameKey(e, a, off)) return e
      s = (s + 1) & (slots.length - 1)
    }
    -1
  }

  /** Add `delta` to the entry keyed `a(off until off + width)`, appending it
    * with value 0 first if absent; returns the entry's index.
    */
  def add(a: Array[Long], off: Int, delta: Long): Int = {
    var s = slotOf(a, off)
    while (true) {
      val e = slots(s) - 1
      if (e < 0) {
        if (size == vals.length) {
          vals = java.util.Arrays.copyOf(vals, size * 2)
          keys = java.util.Arrays.copyOf(keys, size * 2 * width)
        }
        System.arraycopy(a, off, keys, size * width, width)
        vals(size) = delta
        slots(s) = size + 1
        size += 1
        if (2 * size > slots.length) rehash()
        return size - 1
      }
      if (sameKey(e, a, off)) { vals(e) += delta; return e }
      s = (s + 1) & (slots.length - 1)
    }
    -1
  }

  private def rehash(): Unit = {
    slots = new Array[Int](slots.length * 2)
    shift -= 1
    for (e <- 0 until size) {
      var s = slotOf(keys, e * width)
      while (slots(s) != 0) s = (s + 1) & (slots.length - 1)
      slots(s) = e + 1
    }
  }
}

private[truth] object TupleMap {
  /** Power-of-two slot count that keeps `n` entries at most half full. */
  def slotsFor(n: Int): Int = Integer.highestOneBit(math.max(2 * n, 1) * 2 - 1) max 2
}

package repro.core.opt

import repro.workload.{Pred, QuerySpec}

/** One relation occurrence in a planner join graph.
  *
  * `origMask` is the bitmask of *original* query relations this occurrence
  * covers: `1 << i` for a base relation, the union of the materialized
  * sub-join's relations for a re-optimization temporary. The true-cardinality
  * oracle is always keyed on original masks, so estimates survive graph
  * contraction unchanged.
  */
final case class GraphRel(alias: String, table: String, preds: Vector[Pred], origMask: Long)

/** An equi-join equivalence class of the graph. `origId` is the class's index
  * in the original (uncontracted) graph and stays stable across contractions —
  * materialized temporaries name their columns `c<origId>`.
  */
final case class GraphClass(origId: Int, members: Vector[(Int, String)]) {
  val relMask: Long = members.foldLeft(0L)((m, x) => m | (1L << x._1))
}

/** The planner's view of a query: relations + join equivalence classes.
  * Subsets of relations are bitmasks (≤ 64 relations).
  */
final case class JoinGraph(name: String, rels: Vector[GraphRel], classes: Vector[GraphClass]) {
  require(rels.size <= 63, "at most 63 relations")

  val nRels: Int     = rels.size
  val fullMask: Long = if (nRels == 0) 0L else (1L << nRels) - 1

  /** Relations adjacent to relation i (sharing a class), excluding i. */
  val adjacency: Array[Long] = {
    val adj = new Array[Long](nRels)
    for (c <- classes; (i, _) <- c.members) adj(i) |= c.relMask & ~(1L << i)
    adj
  }

  /** Union of original-relation masks covered by `mask`. */
  def origUnion(mask: Long): Long = {
    var m = mask; var u = 0L
    while (m != 0) { val i = java.lang.Long.numberOfTrailingZeros(m); u |= rels(i).origMask; m &= m - 1 }
    u
  }

  /** Relations outside `mask` adjacent to some relation inside it. */
  def neighbors(mask: Long): Long = {
    var m = mask; var nb = 0L
    while (m != 0) { val i = java.lang.Long.numberOfTrailingZeros(m); nb |= adjacency(i); m &= m - 1 }
    nb & ~mask
  }

  /** Is the induced subgraph on `mask` connected (via shared classes)? */
  def connected(mask: Long): Boolean = {
    if (mask == 0) return false
    var reached = java.lang.Long.lowestOneBit(mask)
    var changed = true
    while (changed) {
      val grown = (reached | (neighbors(reached) & mask))
      changed = grown != reached
      reached = grown
    }
    reached == mask
  }

  /** Classes with members on both sides — the join predicate between s and t. */
  def crossClasses(s: Long, t: Long): Vector[GraphClass] =
    classes.filter(c => (c.relMask & s) != 0 && (c.relMask & t) != 0)

  /** Classes with members both inside and outside `mask` — the "interface"
    * a materialized sub-join must expose. For each, a representative inside
    * member supplies the column values.
    */
  def interfaceClasses(mask: Long): Vector[(GraphClass, (Int, String))] =
    classes.flatMap { c =>
      if ((c.relMask & mask) != 0 && (c.relMask & ~mask & fullMask) != 0)
        Some((c, c.members.find(m => (mask & (1L << m._1)) != 0).get))
      else None
    }

  /** Contract the connected subset `sub` into a single temporary relation
    * named `tempTable` (alias = table). The temporary exposes one column
    * `c<origId>` per surviving interface class; filters of contracted
    * relations are consumed by the materialization.
    */
  def contract(sub: Long, tempTable: String): JoinGraph = {
    require(sub != 0 && (sub & ~fullMask) == 0 && connected(sub), s"bad contraction mask $sub")
    val keep    = (0 until nRels).filter(i => (sub & (1L << i)) == 0)
    val tempIdx = keep.size
    val newRels = keep.toVector.map(rels) :+
      GraphRel(tempTable, tempTable, Vector.empty, origUnion(sub))
    // relations below the lowest contracted one keep their index, so a class
    // lying only there, and each member there, is reused
    val low = java.lang.Long.numberOfTrailingZeros(sub)
    val newClasses = classes.flatMap { c =>
      if ((c.relMask >>> low) == 0) Some(c)
      else {
        val outside = c.members.collect {
          case m @ (i, col) if (sub & (1L << i)) == 0 =>
            if (i < low) m else (i - java.lang.Long.bitCount(sub & ((1L << i) - 1)), col)
        }
        val members = if ((c.relMask & sub) != 0) outside :+ ((tempIdx, JoinGraph.tempColumn(c.origId))) else outside
        if (members.size >= 2) Some(GraphClass(c.origId, members)) else None
      }
    }
    JoinGraph(name, newRels, newClasses)
  }
}

object JoinGraph {
  private val tempColumns = Array.tabulate(64)(id => s"c$id")

  /** The column `c<origId>` of a temporary that carries class `origId`; one
    * shared string per class below 64.
    */
  def tempColumn(origId: Int): String =
    if (origId < tempColumns.length) tempColumns(origId) else s"c$origId"

  /** Build the graph of a workload query; origMask_i = 1 << i, origId = index. */
  def fromSpec(q: QuerySpec): JoinGraph =
    JoinGraph(
      q.name,
      q.relations.zipWithIndex.map { case (r, i) => GraphRel(r.alias, r.table, q.preds(i), 1L << i) },
      q.classes.zipWithIndex.map { case (c, i) => GraphClass(i, c.members) },
    )
}

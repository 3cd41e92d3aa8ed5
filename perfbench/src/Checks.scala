package repro.perfbench

import java.sql.{Connection, DriverManager}

import repro.core.ce.QError
import repro.core.data.LocalDB
import repro.core.opt.{CostModel, JoinGraph, JoinPlan, LeafPlan, Plan}
import repro.core.reopt.Reoptimizer
import repro.core.stats.Catalog
import repro.workload.QuerySpec

/** Reference checks on the program's outputs. Each returns the failures it
  * found, empty when the output is right. They are computed outside the
  * timed passes, from code of their own: connectivity is derived from the
  * query's join classes, not from [[JoinGraph]], and cardinalities are
  * counted by DuckDB, not by the oracle.
  */
object Checks {

  /** Relations adjacent to each relation of `q`, from its join classes. */
  def adjacency(q: QuerySpec): Array[Long] = {
    val adj = new Array[Long](q.size)
    for (c <- q.classes; (i, _) <- c.members) adj(i) |= c.relMask & ~(1L << i)
    adj
  }

  /** Is the relation subset `mask` of `q` connected? (graph search) */
  def connected(adj: Array[Long], mask: Long): Boolean = {
    if (mask == 0) return false
    var seen     = java.lang.Long.lowestOneBit(mask)
    var frontier = seen
    while (frontier != 0) {
      val i = java.lang.Long.numberOfTrailingZeros(frontier)
      frontier &= frontier - 1
      val fresh = adj(i) & mask & ~seen
      seen |= fresh
      frontier |= fresh
    }
    seen == mask
  }

  /** Number of connected relation subsets of `q` per subset size, by brute
    * force over all 2^n masks.
    */
  def connectedSubsetsBySize(q: QuerySpec): Map[Int, Int] = {
    val adj    = adjacency(q)
    val counts = new Array[Int](q.size + 1)
    var m      = 1L
    while (m < (1L << q.size)) {
      if (connected(adj, m)) counts(java.lang.Long.bitCount(m)) += 1
      m += 1
    }
    (1 to q.size).map(k => k -> counts(k)).filter(_._2 > 0).toMap
  }

  /** The planner must estimate exactly the connected subsets, once each. */
  def estimateCounts(q: QuerySpec, estimatesBySize: Map[Int, Int]): Vector[String] = {
    val want = connectedSubsetsBySize(q)
    (want.keySet ++ estimatesBySize.keySet).toVector.sorted.flatMap { k =>
      val (w, got) = (want.getOrElse(k, 0), estimatesBySize.getOrElse(k, 0))
      if (w == got) None else Some(s"${q.name}: $got estimates of size $k, $w connected subsets")
    }
  }

  /** Original relations a plan node covers. */
  private def orig(g: JoinGraph, p: Plan): Long = g.origUnion(p.mask)

  /** A plan over graph `g` of query `q` (possibly contracted by
    * re-optimization) covers every original relation exactly once, and every
    * join has a join class with members on both of its sides.
    */
  def planShape(q: QuerySpec, g: JoinGraph, plan: Plan): Vector[String] = {
    val errs   = Vector.newBuilder[String]
    val leaves = Vector.newBuilder[Long]
    def walk(p: Plan): Unit = p match {
      case l: LeafPlan => leaves += g.rels(l.relIdx).origMask
      case j: JoinPlan =>
        val (l, r) = (orig(g, j.left), orig(g, j.right))
        if (!q.classes.exists(c => (c.relMask & l) != 0 && (c.relMask & r) != 0))
          errs += s"${q.name}: join of $l and $r shares no join class"
        walk(j.left); walk(j.right)
    }
    walk(plan)
    val ls = leaves.result()
    val covered = ls.foldLeft(0L)(_ | _)
    if (ls.map(java.lang.Long.bitCount).sum != q.size || covered != (1L << q.size) - 1)
      errs += s"${q.name}: leaves ${ls.mkString(",")} do not cover ${q.size} relations once each"
    errs.result()
  }

  /** Cost of `plan`'s join tree under `cost` when every operator sees its
    * true input and output sizes — the objective the DP minimizes when it
    * runs with perfect estimates. Physical operators and build sides are
    * re-chosen from the true sizes, as the DP would choose them.
    */
  def trueCost(g: JoinGraph, plan: Plan, card: Long => Long, cost: CostModel, catalog: Catalog): Double =
    plan match {
      case l: LeafPlan => cost.scanCost(catalog(g.rels(l.relIdx).table).rowCount)
      case j: JoinPlan =>
        val lc = trueCost(g, j.left, card, cost, catalog)
        val rc = trueCost(g, j.right, card, cost, catalog)
        val lr = card(orig(g, j.left)).toDouble
        val rr = card(orig(g, j.right)).toDouble
        val (phys, buildLeft) = cost.choosePhysical(lr, rr)
        val (build, probe)    = if (buildLeft) (lr, rr) else (rr, lr)
        lc + rc + cost.joinCost(phys, build, probe, card(g.origUnion(j.mask)).toDouble)
    }

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  /** The perfect plan is optimal: its reported cost is its true cost, and no
    * other tree (here: the stats plan's) costs less under true sizes.
    */
  def optimal(name: String, perfectCost: Double, perfectTrueCost: Double, otherTrueCost: Double): Vector[String] =
    Vector(
      Option.when(!close(perfectCost, perfectTrueCost))(
        s"$name: perfect plan reports cost $perfectCost, its true cost is $perfectTrueCost"),
      Option.when(perfectTrueCost > otherTrueCost && !close(perfectTrueCost, otherTrueCost))(
        s"$name: perfect plan costs $perfectTrueCost, another tree costs $otherTrueCost"),
    ).flatten

  /** Invariants of one τ-triggered re-optimization run.
    *
    * @param trueRows true cardinality of an original-relation mask
    */
  def reoptRun(name: String, res: Reoptimizer#Result, tau: Double, maxSteps: Int,
               trueRows: Long => Long): Vector[String] = {
    val errs = Vector.newBuilder[String]
    for (s <- res.steps if !(s.qerror > tau))
      errs += s"$name: step ${s.tempName} has Q-error ${s.qerror} <= tau $tau"
    if (res.steps.size < maxSteps) {
      val g = res.finalGraph
      for (j <- res.finalPlan.joinsBottomUp if j.mask != g.fullMask) {
        val qe = QError(trueRows(g.origUnion(j.mask)).toDouble, j.estRows)
        if (qe > tau) errs += s"$name: final plan keeps join ${g.origUnion(j.mask)} with Q-error $qe > tau $tau"
      }
    }
    errs.result()
  }

  /** With τ above every Q-error the loop must not re-plan, and it must
    * simulate exactly what the stats-plan path simulates.
    */
  def reoptNoop(name: String, res: Reoptimizer#Result, statsSimMs: Double): Vector[String] =
    Vector(
      Option.when(res.steps.nonEmpty)(s"$name: ${res.steps.size} steps with tau above every Q-error"),
      Option.when(res.execMs != statsSimMs)(s"$name: re-optimizer simulated ${res.execMs} ms, stats plan $statsSimMs ms"),
    ).flatten

  def cardMatches(name: String, mask: Long, oracle: Long, reference: Long): Vector[String] =
    if (oracle == reference) Vector.empty
    else Vector(s"$name: oracle says |$mask| = $oracle, DuckDB counts $reference")
}

/** DuckDB, in process, loaded with the collected database: counts sub-joins
  * with plain SQL as the reference for the oracle.
  */
final class DuckRef(db: LocalDB) extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  private val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")
  private val st = conn.createStatement()
  st.execute("SET threads TO 2")
  st.execute("SET memory_limit = '1GB'")
  for ((name, t) <- db.tables) {
    st.execute(s"CREATE TABLE \"$name\" (${t.colNames.map(c => s"$c BIGINT").mkString(", ")})")
    val app = conn.asInstanceOf[org.duckdb.DuckDBConnection].createAppender("main", name)
    try {
      val cols = t.colNames.map(t.col)
      var r = 0
      while (r < t.rowCount) {
        app.beginRow(); cols.foreach(c => app.append(c(r))); app.endRow()
        r += 1
      }
    } finally app.close()
  }

  /** `count(*)` of the sub-join of `q` on the relations of `mask`. */
  def count(q: QuerySpec, mask: Long): Long = {
    val rs = st.executeQuery(DuckRef.countSql(q, mask))
    try { rs.next(); rs.getLong(1) } finally rs.close()
  }

  override def close(): Unit = { st.close(); conn.close() }
}

object DuckRef {
  /** `SELECT count(*)` over the relations of `mask`, with their filters and
    * every join-class equality among them.
    */
  def countSql(q: QuerySpec, mask: Long): String = {
    val in    = (0 until q.size).filter(i => (mask & (1L << i)) != 0)
    def ref(i: Int, col: String) = s"\"${q.relations(i).alias}\".$col"
    val joins = q.classes.flatMap { c =>
      c.members.filter(m => (mask & (1L << m._1)) != 0).sliding(2).collect {
        case Seq((i, a), (j, b)) => s"${ref(i, a)} = ${ref(j, b)}"
      }
    }
    val filters = in.flatMap(i => q.preds(i).map(p => p.sql(ref(i, p.column))))
    val from    = in.map(i => s"\"${q.relations(i).table}\" AS \"${q.relations(i).alias}\"").mkString(", ")
    val where   = joins ++ filters
    s"SELECT count(*) FROM $from" + (if (where.isEmpty) "" else where.mkString(" WHERE ", " AND ", ""))
  }
}

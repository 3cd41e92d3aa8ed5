package repro.workload

import repro.core.opt.JoinGraph

/** A single-column predicate of a JOB-lite query. All schema columns are
  * BIGINT, so literals are Longs.
  */
sealed trait Pred {
  def column: String
  /** Evaluate against a concrete value (used by the true-cardinality oracle). */
  def eval(v: Long): Boolean
  /** Render as SQL against `ref` (an already-qualified column reference). */
  def sql(ref: String): String
}

/** `column = value`. */
final case class EqPred(column: String, value: Long) extends Pred {
  def eval(v: Long): Boolean = v == value
  def sql(ref: String): String = s"$ref = $value"
}

/** `column IN (values…)`. */
final case class InPred(column: String, values: Seq[Long]) extends Pred {
  require(values.nonEmpty, "IN list must be non-empty")
  private val set = values.toSet
  def eval(v: Long): Boolean = set(v)
  def sql(ref: String): String = s"$ref IN (${values.mkString(", ")})"
}

/** `column BETWEEN lo AND hi` (inclusive). */
final case class RangePred(column: String, lo: Long, hi: Long) extends Pred {
  def eval(v: Long): Boolean = v >= lo && v <= hi
  def sql(ref: String): String = s"$ref BETWEEN $lo AND $hi"
}

/** One relation occurrence (an alias) in a query. `table` names either a
  * schema base table or a materialized temporary produced by re-optimization.
  */
final case class Relation(alias: String, table: String)

/** An equi-join equivalence class: every member column holds the same value in
  * the join result. Members are (relationIndex, columnName). JOB queries spell
  * out the transitive closure of such classes (e.g. `ci.movie_id = t.id AND
  * t.id = mk.movie_id AND ci.movie_id = mk.movie_id`); representing the class
  * directly keeps enumeration and contraction canonical.
  */
final case class JoinClass(members: Vector[(Int, String)]) {
  require(members.size >= 2, s"join class needs >=2 members: $members")
  def relMask: Long = members.foldLeft(0L)((m, x) => m | (1L << x._1))
  def touches(relIdx: Int): Boolean = members.exists(_._1 == relIdx)
}

/** A select-project-join query over the IMDB-lite schema: conjunctive
  * equi-joins (as equivalence classes) plus per-relation filter predicates,
  * aggregated to `COUNT(*)` like the paper's cardinality-centric workload.
  */
final case class QuerySpec(
    name: String,
    relations: Vector[Relation],
    classes: Vector[JoinClass],
    filters: Map[Int, Vector[Pred]],
) {
  def size: Int = relations.size

  /** The planner's join graph of this query, built once per spec. */
  lazy val graph: JoinGraph = JoinGraph.fromSpec(this)

  def preds(relIdx: Int): Vector[Pred] = filters.getOrElse(relIdx, Vector.empty)

  private def ref(relIdx: Int, col: String, castBigint: Boolean): String = {
    val r = s"${relations(relIdx).alias}.$col"
    if (castBigint) s"CAST($r AS BIGINT)" else r
  }

  /** All join conjuncts: each class chained as member0 = member1 = … */
  private def joinConjuncts(castBigint: Boolean): Seq[String] =
    classes.flatMap { c =>
      c.members.sliding(2).map { case Vector((r1, c1), (r2, c2)) =>
        s"${ref(r1, c1, castBigint)} = ${ref(r2, c2, castBigint)}"
      }
    }

  private def filterConjuncts(castBigint: Boolean): Seq[String] =
    relations.indices.flatMap(i => preds(i).map(p => p.sql(ref(i, p.column, castBigint))))

  private def fromClause: String =
    relations.map(r => s"${r.table} AS ${r.alias}").mkString(",\n  ")

  private def whereClause(castBigint: Boolean): String =
    (joinConjuncts(castBigint) ++ filterConjuncts(castBigint)).mkString("\n  AND ")

  /** `SELECT COUNT(*) AS cnt FROM … WHERE …` — identical text runs on Spark.
    * With `castBigint = true` every column reference is wrapped in
    * `CAST(… AS BIGINT)`, which makes the same query safe on the DuckDB
    * oracle side where [[repro.Oracle]] loads all columns as VARCHAR.
    */
  def countSql(castBigint: Boolean = false): String =
    s"SELECT COUNT(*) AS cnt\nFROM $fromClause\nWHERE ${whereClause(castBigint)}"

  /** Like [[countSql]] but additionally returns MIN of one join-class column
    * per class — a stronger result-equivalence check for executor tests.
    */
  def checksumSql(castBigint: Boolean = false): String = {
    val mins = classes.zipWithIndex.map { case (c, i) =>
      val (r, col) = c.members.head
      s"MIN(${ref(r, col, castBigint)}) AS min_c$i"
    }
    s"SELECT COUNT(*) AS cnt, ${mins.mkString(", ")}\nFROM $fromClause\nWHERE ${whereClause(castBigint)}"
  }
}

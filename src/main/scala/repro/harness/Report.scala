package repro.harness

import repro.core.ce.QError
import repro.workload.JobLite

/** A printable paper table: `|`-separated rows, framed by `===` lines, then
  * free-form note lines.
  */
final case class Table(title: String, header: Seq[String], rows: Seq[Seq[Any]], notes: Seq[String] = Nil) {
  def print(): Unit = {
    println(s"\n=== $title ===")
    println(header.mkString(" | "))
    rows.foreach(r => println(r.mkString(" | ")))
    println(s"=== end $title ===\n")
    notes.foreach(println)
  }
}

/** Workload totals of the three headline configurations, in milliseconds. */
final case class Totals(pg: Double, perfect: Double, reopt: Double)

/** Every paper table, built from the per-query records of [[Experiments]],
  * with the paper's own numbers alongside. Totals are summed in query order.
  */
object Report {

  val paperTableI: Map[Int, Int] = Map(
    1 -> 977, 2 -> 1346, 3 -> 2676, 4 -> 4493, 5 -> 6510, 6 -> 8387,
    7 -> 9781, 8 -> 10326, 9 -> 9732, 10 -> 8019, 11 -> 5665, 12 -> 3357,
    13 -> 1630, 14 -> 624, 15 -> 177, 16 -> 33, 17 -> 3)
  val paperTableII: Map[String, Int] = Map("0.1 - 0.8" -> 7, "0.8 - 1.2" -> 32, "1.2 - 2.0" -> 28,
    "2.0 - 5.0" -> 32, "> 5.0" -> 14)
  val paperTableVI: Map[String, Int] = Map("0.1 - 0.8" -> 6, "0.8 - 1.2" -> 47, "1.2 - 2.0" -> 21,
    "2.0 - 5.0" -> 29, "> 5.0" -> 10)

  /** The paper's bucket boundaries for Tables II and VI. */
  val bucketLabels: Vector[String] = Vector("0.1 - 0.8", "0.8 - 1.2", "1.2 - 2.0", "2.0 - 5.0", "> 5.0")

  def bucket(ratio: Double): String =
    if (ratio < 0.8) "0.1 - 0.8"
    else if (ratio < 1.2) "0.8 - 1.2"
    else if (ratio < 2.0) "1.2 - 2.0"
    else if (ratio <= 5.0) "2.0 - 5.0"
    else "> 5.0"

  def bucketCounts(ratios: Seq[Double]): Map[String, Int] =
    bucketLabels.map(l => l -> ratios.count(r => bucket(r) == l)).toMap

  def estimatesBySize(res: Seq[QueryRun]): Map[Int, Int] =
    res.map(_.estBySize).foldLeft(Map.empty[Int, Int]) { (acc, m) =>
      m.foldLeft(acc) { case (a, (k, v)) => a.updated(k, a.getOrElse(k, 0) + v) }
    }

  def totals(res: Seq[QueryRun]): Totals =
    Totals(res.map(_.pgMs).sum, res.map(_.perfectMs).sum, res.map(_.reoptMs).sum)

  def realTotals(runs: Seq[RealRun]): Totals =
    Totals(runs.map(_.pgMs).sum, runs.map(_.perfectMs).sum, runs.map(_.reoptMs).sum)

  def perfectNTotals(res: Seq[QueryRun]): Map[Int, Double] =
    Experiments.PerfectNs.map(n => n -> res.map(_.perfectNMs(n)).sum).toMap

  def reoptNTotals(res: Seq[QueryRun]): Map[Int, Double] =
    Experiments.ReoptNs.map(n => n -> res.map(_.reoptNMs(n)).sum).toMap

  def tauTotals(res: Seq[QueryRun]): Map[Double, (Double, Double)] =
    Experiments.Taus.map(t => t -> (res.map(_.tauMs(t)._1).sum, res.map(_.tauMs(t)._2).sum)).toMap

  /** Tables IV/V: (estimated, true) size of frequent keywords ⋈ movie_keyword in q06a. */
  def skewJoin(wb: Workbench): (Double, Double) = {
    val ctx  = new QueryCtx(wb, JobLite.byName("q06a"))
    val g    = ctx.graph
    val mask = (1L << g.rels.indexWhere(_.alias == "k")) | (1L << g.rels.indexWhere(_.alias == "mk"))
    (ctx.statsEstimator().cardinality(g, mask), ctx.truth.card(mask).toDouble)
  }

  def tableI(res: Seq[QueryRun]): Table = {
    val ours = estimatesBySize(res)
    Table("TABLE I (estimates on joins of N tables)", Seq("#tables", "paper", "ours"),
      (1 to 17).map(n => Seq(n, paperTableI.getOrElse(n, 0), ours.getOrElse(n, 0))))
  }

  def tableII(res: Seq[QueryRun]): Table = {
    val ours = bucketCounts(res.map(_.pgRel))
    Table("TABLE II (pg-CE runtime relative to perfect-(17))",
      Seq("relative runtime", "paper #queries", "ours #queries"),
      bucketLabels.map(l => Seq(l, paperTableII(l), ours(l))))
  }

  def tableIII: Table =
    Table("TABLE III (queries with a given number of tables)", Seq("#tables", "paper", "ours"),
      JobLite.paperTableIII.toSeq.sorted.map { case (n, c) =>
        Seq(n, c, JobLite.sizeHistogram.getOrElse(n, 0)) })

  def tableIVV(wb: Workbench): Table = {
    val (e, tr) = skewJoin(wb)
    Table("TABLE IV/V demo (skewed join under uniformity)", Seq("quantity", "value"), Seq(
      Seq("estimated |σ(keyword) ⋈ movie_keyword|", f"$e%.0f"),
      Seq("true      |σ(keyword) ⋈ movie_keyword|", f"$tr%.0f"),
      Seq("q-error", f"${QError(tr, e)}%.1f")))
  }

  def tableVI(res: Seq[QueryRun]): Table = {
    val ours = bucketCounts(res.map(_.reoptRel))
    val Totals(pg, perfect, re) = totals(res)
    Table("TABLE VI (re-optimized runtime relative to perfect-(17))",
      Seq("relative runtime", "paper #queries", "ours #queries"),
      bucketLabels.map(l => Seq(l, paperTableVI(l), ours(l))),
      Seq(f"[headline] workload exec: pg=$pg%.0f ms, reopt=$re%.0f ms, " +
        f"perfect=$perfect%.0f ms; reopt improvement=${100 * (pg - re) / pg}%.1f%% " +
        f"(paper: 45%%), share of perfect benefit=${(pg - re) / math.max(pg - perfect, 1e-9)}%.2f"))
  }

  def fig1(runs: Seq[RealRun]): Table = {
    val Totals(pgT, pfT, reT) = realTotals(runs)
    Table("FIG 1 (top-20 longest queries, real Spark wall-clock ms)",
      Seq("query", "pg plan", "perfect plan", "re-optimized", "reopt steps"),
      runs.map(r => Seq(r.name, f"${r.pgMs}%.0f", f"${r.perfectMs}%.0f", f"${r.reoptMs}%.0f", r.steps))
        :+ Seq("TOTAL", f"$pgT%.0f", f"$pfT%.0f", f"$reT%.0f", "-"),
      Seq(f"[headline] top-20 real: pg=$pgT%.0f ms perfect=$pfT%.0f ms reopt=$reT%.0f ms " +
        f"improvement=${100 * (pgT - reT) / pgT}%.1f%% (paper: 27%% end-to-end / 35%% exec)"))
  }

  def fig2(res: Seq[QueryRun]): Table = {
    val totals = perfectNTotals(res)
    Table("FIG 2 (total exec ms under perfect-(n))", Seq("n", "total exec (sim ms)", "vs perfect-(0)"),
      Experiments.PerfectNs.map(n => Seq(n, f"${totals(n)}%.0f", f"${totals(n) / totals(0)}%.2f")))
  }

  def fig7(res: Seq[QueryRun]): Table = {
    val sweep = tauTotals(res)
    val Totals(pg, perfect, _) = totals(res)
    Table("FIG 7 (total exec/plan ms by re-optimization threshold)", Seq("tau", "exec ms", "plan ms"),
      Experiments.Taus.map(t => Seq(t.toInt, f"${sweep(t)._1}%.0f", f"${sweep(t)._2}%.0f"))
        ++ Seq(Seq("pg (no reopt)", f"$pg%.0f", "-"), Seq("perfect-(17)", f"$perfect%.0f", "-")))
  }

  def fig8(res: Seq[QueryRun]): Table = {
    val plain = perfectNTotals(res)
    val reopt = reoptNTotals(res)
    Table("FIG 8 (perfect-(n) alone vs + re-optimization)",
      Seq("n", "perfect-(n) ms", "+reopt ms", "reopt/plain"),
      Experiments.ReoptNs.map(n => Seq(n, f"${plain(n)}%.0f", f"${reopt(n)}%.0f", f"${reopt(n) / plain(n)}%.2f")))
  }
}

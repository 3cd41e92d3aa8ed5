package repro.perfbench

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import java.security.MessageDigest

import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.core.data.LocalDB
import repro.core.opt.CostModel
import repro.core.stats.Analyzer
import repro.harness.Workbench
import repro.imdb.ImdbLite

/** One benchmark run: one workload, one JVM.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>]
  *
  * Builds the IMDB-lite database from the data seed (default 42) at SF 0.1
  * under a pinned Spark layout, makes one untimed warm-up pass over the
  * workload's queries, checks that pass's outputs against references, then
  * makes timed passes until `seconds` of pass time have elapsed. `--seed`
  * orders the queries within each pass; the data never depends on it.
  *
  * The last line of standard output is the result object. With `--trace 1`
  * its metrics are the per-layer ones, and the spans are written to
  * `perfbench/out/trace-<workload>-<seed>.json`.
  */
object Main {

  val SF = 0.1
  val DefaultDataSeed = 42L

  /** Spark's task threads during set-up. The data does not depend on it. */
  val SparkThreads = 2
  /** Partitions of every generated table and of every shuffle: `rand(seed)`
    * is seeded per partition, so this fixes the generated data on any
    * machine. 4 reproduces the data that `local[*]` yields on 4 cores.
    */
  val DataPartitions = 4

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, dataSeed: Long)

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "data-seed")
    kv.keys.find(!known(_)).foreach(k => usage(s"unknown option --$k"))
    def need(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    val w = Workloads.byName(need("workload")).getOrElse(
      usage(s"unknown workload ${need("workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match { case "0" => false; case "1" => true; case t => usage(s"--trace $t") }
    val seconds = need("seconds").toInt
    if (seconds < 1) usage("--seconds must be at least 1")
    Args(w, need("seed").toLong, seconds, trace, kv.get("data-seed").fold(DefaultDataSeed)(_.toLong))
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val tr   = new Tracer(args.trace)
    val spark = tr.span("spark.session")(
      SparkSession.builder
        .master(s"local[$SparkThreads]")
        .appName("perfbench")
        .config("spark.default.parallelism", DataPartitions.toLong)
        .config("spark.sql.shuffle.partitions", DataPartitions.toLong)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", Paths.get(System.getProperty("java.io.tmpdir"), "warehouse").toString)
        .getOrCreate())
    // Any exception is a failed run: exit non-zero without a result line,
    // even if some library thread would keep the JVM alive.
    val code =
      try run(args, spark, tr)
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  /** Median of a non-empty sample. */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** SHA-256 over every table, column and value of the collected database. */
  def digest(db: LocalDB): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for ((name, t) <- db.tables.toVector.sortBy(_._1); c <- t.colNames) {
      md.update(s"$name.$c\u0000".getBytes(UTF_8))
      val col = t.col(c)
      val buf = ByteBuffer.allocate(8 * col.length)
      col.foreach(buf.putLong)
      md.update(buf.array())
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private final case class Pass(ns: Long, done: Vector[Done], layers: Map[String, Long])

  private def run(args: Args, spark: SparkSession, tr: Tracer): Int = {
    val w = args.workload
    // The steps of Workbench.apply, timed one by one.
    Workbench.configure(spark)
    val cfg   = ImdbLite.Config(SF, args.dataSeed)
    val db    = tr.span("imdb.database")(ImdbLite.database(spark, cfg))
    val local = tr.span("data.collect")(LocalDB.collect(db))
    val cat   = tr.span("stats.analyze")(Analyzer.analyze(local))
    val wb    = Workbench(spark, cfg, db, local, cat, CostModel())
    val setupS = Jvm.uptimeS()
    val setup  = tr.endPass()
    println(s"database sf=$SF data-seed=${args.dataSeed} digest=${digest(local)}")

    var heapPeakMb = Jvm.liveHeapMb()
    val rnd = new Random(args.seed)
    def pass(keep: Boolean): Pass = {
      val order = rnd.shuffle(w.queries)
      val (gc0, gcMs0) = Jvm.gcTotals()
      val t0   = System.nanoTime()
      val done = order.map { q =>
        val d = tr.span(s"query:${q.name}")(w.run(wb, q, tr))
        if (keep) d else d.copy(ctx = null)
      }
      val ns = System.nanoTime() - t0
      val (gc1, gcMs1) = Jvm.gcTotals()
      tr.add("jvm.gc_count", gc1 - gc0)
      tr.add("jvm.gc", (gcMs1 - gcMs0) * 1000000L)
      Pass(ns, done, tr.endPass())
    }

    // Warm-up: untimed; its outputs are the ones checked against references.
    val warm     = pass(keep = true)
    val t0       = System.nanoTime()
    val failures = w.check(wb, warm.done)
    val checkS   = (System.nanoTime() - t0) / 1e9
    val expected = warm.done.map(d => d.q.name -> d.fingerprint).toMap
    // Summed in a fixed order, so that the total is bit-identical in every run.
    val simMs    = warm.done.sortBy(_.q.name).map(_.simMs).sum
    var attempted = warm.done.size
    var failed    = warm.done.count(d => failures.perQuery.getOrElse(d.q.name, Vector.empty).nonEmpty)
    (failures.global ++ failures.perQuery.values.flatten).foreach(e => Console.err.println(s"CHECK FAILED $e"))
    heapPeakMb = math.max(heapPeakMb, Jvm.liveHeapMb())

    // Timed passes: each query must repeat the warm-up's checked figures.
    val timed = Vector.newBuilder[Pass]
    var elapsed = 0L
    var n = 0
    while (elapsed < args.seconds * 1000000000L) {
      val p = pass(keep = false)
      timed += p
      elapsed += p.ns
      n += 1
      attempted += p.done.size
      for (d <- p.done if expected(d.q.name) != d.fingerprint) {
        failed += 1
        Console.err.println(s"CHECK FAILED ${d.q.name}: pass $n gave ${d.fingerprint}, warm-up ${expected(d.q.name)}")
      }
      heapPeakMb = math.max(heapPeakMb, Jvm.liveHeapMb())
    }
    val passes = timed.result()
    Console.err.println(f"perfbench: ${w.name}: set-up $setupS%.1f s, warm-up ${warm.ns / 1e9}%.1f s, " +
      f"checks ${checkS}%.1f s, ${passes.size} timed passes of ${w.queries.size} queries: " +
      passes.map(p => f"${p.ns / 1e9}%.3f").mkString(" ") + " s")

    val metrics: Vector[(String, Double, String)] =
      if (!args.trace) Vector(
        ("setup_s", setupS, "s"),
        ("pass_s", median(passes.map(_.ns / 1e9)), "s"),
        ("plan_s", median(passes.map(_.layers.getOrElse("opt.plan", 0L) / 1e9)), "s"),
        ("sim_exec_ms", simMs, "sim-ms"),
        ("heap_peak_mb", heapPeakMb, "MB"),
      )
      else {
        Files.createDirectories(Paths.get("perfbench", "out"))
        Files.writeString(Paths.get("perfbench", "out", s"trace-${w.name}-${args.seed}.json"), tr.toJson)
        Layers.metrics(setup, passes.map(p => p.layers.updated("bench.pass", p.ns)))
      }

    val correct = failures.global.isEmpty
    val body = metrics.map { case (k, v, u) => s"${Json.str(k)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}""")
    0
  }
}

/** Per-layer metrics of a traced run, from the span and counter totals. */
object Layers {
  private def s(ns: Long): Double = ns / 1e9

  def metrics(setup: Map[String, Long], passes: Vector[Map[String, Long]]): Vector[(String, Double, String)] = {
    def med(f: Map[String, Long] => Double): Double = Main.median(passes.map(f))
    def get(p: Map[String, Long], k: String): Long = p.getOrElse(k, 0L)
    def time(k: String)  = (k + "_s", med(p => s(get(p, k))), "s")
    def count(k: String) = (k, med(p => get(p, k).toDouble), "count")
    Vector(
      // The traced pass, to compare with the untraced run's pass_s.
      time("bench.pass"),
      ("spark.session_s", s(get(setup, "spark.session")), "s"),
      ("imdb.database_s", s(get(setup, "imdb.database")), "s"),
      ("data.collect_s", s(get(setup, "data.collect")), "s"),
      ("stats.analyze_s", s(get(setup, "stats.analyze")), "s"),
      time("truth.init"),
      count("truth.subsets"),
      time("ce.estimate"),
      count("ce.estimate_calls"),
      time("opt.plan"),
      count("opt.plan_calls"),
      // The planner estimates each connected subset once; inside the
      // re-optimization loop the planner's result is not visible, so there
      // the estimator's call count stands in for it.
      ("opt.subsets", med(p => p.getOrElse("opt.subsets", get(p, "ce.estimate_calls")).toDouble), "count"),
      ("opt.self_s", med(p => s(get(p, "opt.plan") - get(p, "ce.estimate"))), "s"),
      time("exec.sim"),
      count("exec.sim_calls"),
      time("reopt.run"),
      count("reopt.replans"),
      time("reopt.materialize"),
      ("reopt.self_s", med(p =>
        if (get(p, "reopt.run") == 0) 0.0
        else s(get(p, "reopt.run") - get(p, "opt.plan") - get(p, "exec.sim") - get(p, "reopt.materialize"))), "s"),
      time("jvm.gc"),
      count("jvm.gc_count"),
    )
  }
}

package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import repro.core.ce.Estimator
import repro.core.opt.{JoinGraph, Plan}
import repro.core.reopt.ExecBackend
import repro.core.stats.TableStats

/** Spans and per-layer counters, recorded from the benchmark's own code
  * around the program's public calls.
  *
  * Timings and counters always accumulate into the current pass's totals,
  * because the end-to-end metrics need some of them (planning time); they
  * are taken around whole calls only. Stored spans and the per-call
  * delegating wrappers below exist only in a traced run. Spans are kept in
  * memory and written out as JSON once the run ends.
  */
final class Tracer(val on: Boolean) {
  private final case class Span(id: Int, parent: Int, name: String, start: Long, var end: Long,
                                attrs: mutable.LinkedHashMap[String, Long])

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Span]
  private var pass  = mutable.LinkedHashMap.empty[String, Long]

  /** Time `body` and add its duration in ns to the pass total `name`; in a
    * traced run also record it as a span.
    */
  def span[A](name: String)(body: => A): A = {
    val s = Span(spans.size, open.headOption.fold(-1)(_.id), name, System.nanoTime(), 0L,
                 mutable.LinkedHashMap.empty)
    if (on) { spans += s; open = s :: open }
    try body
    finally {
      s.end = System.nanoTime()
      if (on) open = open.tail
      add(name, s.end - s.start)
    }
  }

  /** Add `v` to pass total `key` and to the innermost open span's attribute. */
  def add(key: String, v: Long): Unit = {
    pass(key) = pass.getOrElse(key, 0L) + v
    open.headOption.foreach(s => s.attrs(key) = s.attrs.getOrElse(key, 0L) + v)
  }

  /** Pass totals since the previous call; starts the next pass. */
  def endPass(): Map[String, Long] = { val p = pass.toMap; pass = mutable.LinkedHashMap.empty; p }

  def toJson: String = {
    val b = new StringBuilder("[\n")
    spans.zipWithIndex.foreach { case (s, i) =>
      val attrs = s.attrs.map { case (k, v) => s"${Json.str(k)}: $v" }.mkString(", ")
      b ++= s"""{"id": ${s.id}, "parent": ${s.parent}, "name": ${Json.str(s.name)}, """ +
            s""""start_ns": ${s.start}, "end_ns": ${s.end}, "attrs": {$attrs}}"""
      b ++= (if (i + 1 < spans.size) ",\n" else "\n")
    }
    b ++= "]\n"
    b.result()
  }
}

/** Delegating estimator: counts and times every `cardinality` call. */
final class TracedEstimator(inner: Estimator, tr: Tracer) extends Estimator {
  override def cardinality(g: JoinGraph, mask: Long): Double = {
    val t0 = System.nanoTime()
    val v  = inner.cardinality(g, mask)
    tr.add("ce.estimate", System.nanoTime() - t0)
    tr.add("ce.estimate_calls", 1)
    v
  }
}

/** Delegating re-optimization backend: times final executions (as
  * `exec.sim`) and materializations (as `reopt.materialize`).
  */
final class TracedBackend(inner: ExecBackend, tr: Tracer) extends ExecBackend {
  override def run(g: JoinGraph, plan: Plan): Double = {
    tr.add("exec.sim_calls", 1)
    tr.span("exec.sim")(inner.run(g, plan))
  }
  override def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats) =
    tr.span("reopt.materialize")(inner.materialize(g, plan, tempName))
}

/** JVM-wide collector counters and live-heap probes. */
object Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  /** (collections, collection ms) so far, summed over all collectors. */
  def gcTotals(): (Long, Long) =
    (gcs.map(g => math.max(0L, g.getCollectionCount)).sum, gcs.map(g => math.max(0L, g.getCollectionTime)).sum)

  /** Heap in use right after a full collection, in MB. */
  def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** Seconds since the JVM started. */
  def uptimeS(): Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
}

/** Just enough JSON for the result line and the trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) throw new IllegalArgumentException(s"not a JSON number: $d")
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString
}

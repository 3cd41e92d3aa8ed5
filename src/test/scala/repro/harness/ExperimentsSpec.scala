package repro.harness

import repro.{SparkSpec, TestData}
import repro.workload.JobLite

/** The per-query record shares one oracle across every configuration of a
  * query; each of its figures must equal what a fresh [[QueryCtx]] computes
  * for that configuration alone.
  */
class ExperimentsSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  for (name <- Seq("q06a", "q09a", "q19a")) {
    test(s"$name: the merged record equals a fresh QueryCtx per configuration") {
      val q = JobLite.byName(name)
      val r = Experiments.runQuery(wb, q)
      def fresh = new QueryCtx(wb, q)

      val c = fresh
      val stats = c.planner.plan(c.graph, c.statsEstimator())
      assert(r.estBySize == stats.estimatesBySize)
      assert(r.pgMs == c.simRun(c.statsEstimator())._1)
      assert(r.perfectMs == fresh.simRun(fresh.perfect)._1)
      for (n <- Experiments.PerfectNs) {
        val c = fresh
        assert(r.perfectNMs(n) == c.simRun(c.perfectN(n))._1, s"Fig 2, n=$n")
      }
      for (n <- Experiments.ReoptNs) {
        val c = fresh
        assert(r.reoptNMs(n) == c.simReopt(Experiments.Tau, cat => c.perfectN(n, cat)).execMs, s"Fig 8, n=$n")
      }
      for (t <- Experiments.Taus) {
        val c = fresh
        assert(r.tauMs(t)._1 == c.simReopt(t, cat => c.statsEstimator(cat)).execMs, s"Fig 7, tau=$t")
      }
    }
  }

  test("realRun: pg, perfect and re-optimized plans run on Spark and release their temporaries") {
    val before = spark.sparkContext.getPersistentRDDs.size
    val r = Experiments.realRun(wb, JobLite.byName("q06a"))
    assert(r.name == "q06a" && r.steps >= 1, r.toString)
    assert(r.pgMs > 0 && r.perfectMs > 0 && r.reoptMs > 0, r.toString)
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }
}

package repro.core.exec

import repro.{Oracle, SparkSpec, TestData}
import repro.core.ce.{PerfectEstimator, StatsEstimator}
import repro.core.opt._
import repro.core.truth.TrueCardinality
import repro.workload.JobLite

/** Real executor: the DataFrame join tree must compute exactly the query's
  * result (cross-checked against Spark SQL and the DuckDB oracle), for both
  * estimator-chosen and perfect plans, bushy or not.
  */
class SparkExecutorSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  private val sample = Vector("q01a", "q02a", "q03a", "q04a", "q05a", "q06a", "q07a", "q08a")

  for (name <- sample) {
    test(s"$name: executed plan count equals Spark SQL count") {
      for ((n, df) <- wb.db) df.createOrReplaceTempView(n)
      val q = JobLite.byName(name)
      val g = JoinGraph.fromSpec(q)
      val res  = new DPPlanner(wb.cost, wb.catalog).plan(g, new StatsEstimator(wb.catalog))
      val exec = new SparkExecutor(spark, wb.db)
      val (cnt, _) = exec.run(g, res.plan)
      val ref = spark.sql(q.countSql()).collect()(0).getLong(0)
      assert(cnt == ref, s"plan=${res.plan.render(g)}")
    }
  }

  for (name <- Vector("q03a", "q06a")) {
    test(s"$name: perfect-plan execution gives the same count as the pg plan") {
      val q = JobLite.byName(name)
      val g = JoinGraph.fromSpec(q)
      val t = new TrueCardinality(g, wb.local)
      val planner = new DPPlanner(wb.cost, wb.catalog)
      val exec    = new SparkExecutor(spark, wb.db)
      val pg      = exec.run(g, planner.plan(g, new StatsEstimator(wb.catalog)).plan)._1
      val perf    = exec.run(g, planner.plan(g, new PerfectEstimator(t)).plan)._1
      assert(pg == perf)
      assert(pg == t.card(g.fullMask))
    }
  }

  test("q02a: executed DataFrame matches the DuckDB oracle row-for-row") {
    val q = JobLite.byName("q02a")
    val g = JoinGraph.fromSpec(q)
    val res  = new DPPlanner(wb.cost, wb.catalog).plan(g, new StatsEstimator(wb.catalog))
    val exec = new SparkExecutor(spark, wb.db)
    val df   = exec.dataFrame(g, res.plan).agg(
      org.apache.spark.sql.functions.count(org.apache.spark.sql.functions.lit(1)).as("cnt"))
    val tables = q.relations.map(_.table).distinct.map(tn => tn -> wb.db(tn))
    Oracle.assertEquivalent(df, q.countSql(castBigint = true), tables: _*)
  }

  test("materialize exposes one c<origId> column per interface class") {
    val q = JobLite.byName("q06a")
    val g = JoinGraph.fromSpec(q)
    val res  = new DPPlanner(wb.cost, wb.catalog).plan(g, new StatsEstimator(wb.catalog))
    val exec = new SparkExecutor(spark, wb.db)
    val j    = res.plan.joinsBottomUp.head
    val (df, n, _) = exec.materialize(g, j)
    val iface = g.interfaceClasses(j.mask)
    assert(df.columns.toSet == iface.map { case (c, _) => s"c${c.origId}" }.toSet)
    assert(n == new TrueCardinality(g, wb.local).card(j.mask))
    df.unpersist()
  }

  test("missing table raises a clear error") {
    val g = JoinGraph("x", Vector(GraphRel("a", "no_such", Vector.empty, 1L)), Vector.empty)
    val exec = new SparkExecutor(spark, wb.db)
    intercept[NoSuchElementException] {
      exec.dataFrame(g, LeafPlan(0, 1L, 1.0, 1.0))
    }
  }
}

/** Simulated executor: pricing must reflect true cardinalities and punish
  * mistaken physical choices, diverging from the planner's own cost model.
  */
class SimExecutorSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  test("perfect plan never simulates slower than 1.5x the pg plan (sample)") {
    for (name <- Vector("q02a", "q03a", "q06a")) {
      val q = JobLite.byName(name)
      val g = JoinGraph.fromSpec(q)
      val t = new TrueCardinality(g, wb.local)
      val planner = new DPPlanner(wb.cost, wb.catalog)
      val sim = new SimExecutor(wb.cost, wb.catalog)
      val pg   = sim.executionWork(g, t, planner.plan(g, new StatsEstimator(wb.catalog)).plan)
      val perf = sim.executionWork(g, t, planner.plan(g, new PerfectEstimator(t)).plan)
      assert(perf <= pg * 1.5, s"$name: perf=$perf pg=$pg")
    }
  }

  test("materialization costs more than plain execution") {
    val q = JobLite.byName("q06a")
    val g = JoinGraph.fromSpec(q)
    val t = new TrueCardinality(g, wb.local)
    val res = new DPPlanner(wb.cost, wb.catalog).plan(g, new StatsEstimator(wb.catalog))
    val sim = new SimExecutor(wb.cost, wb.catalog)
    assert(sim.materializationWork(g, t, res.plan) > sim.executionWork(g, t, res.plan))
  }

  test("mistaken broadcast is punished at runtime but not at plan time") {
    val cm = wb.cost
    val est = 1000.0   // planner thinks the build side is tiny
    val tru = 500000.0 // it is not
    val plannerCost = cm.joinCost(Physical.BroadcastHash, est, 1e5, 1e5)
    val runtime     = cm.runtimeJoinWork(Physical.BroadcastHash, tru, 1e5, 1e5)
    val shuffleRt   = cm.runtimeJoinWork(Physical.ShuffleHash, tru, 1e5, 1e5)
    assert(runtime > shuffleRt, "replicated broadcast must cost more than shuffle")
    assert(plannerCost < runtime / 10)
  }

  test("spill penalty applies beyond memRows") {
    val cm = CostModel(memRows = 100.0, spillFactor = 10.0)
    val small = cm.runtimeJoinWork(Physical.ShuffleHash, 99, 1000, 10)
    val big   = cm.runtimeJoinWork(Physical.ShuffleHash, 101, 1000, 10)
    assert(big > small)
  }

  test("work converts to milliseconds") {
    assert(SimExecutor.toMillis(SimExecutor.RowsPerMs * 7) == 7.0)
  }
}

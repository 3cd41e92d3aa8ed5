package repro.perfbench

import repro.core.data.{LocalDB, LocalTable}
import repro.core.exec.SimExecutor
import repro.core.opt.{CostModel, DPPlanner, JoinGraph, JoinPlan, LeafPlan, Physical, Plan}
import repro.core.reopt.{Reoptimizer, SimBackend}
import repro.core.ce.{PerfectEstimator, StatsEstimator}
import repro.core.stats.Analyzer
import repro.core.truth.TrueCardinality
import repro.workload.{JoinClass, QuerySpec, Relation}

/** Tests of the benchmark's own checks: each check must pass on a right
  * output and fail on a wrong one (an off-by-one subset count, a perturbed
  * cardinality, a non-optimal tree, a broken plan, a broken re-optimization
  * run). Runs on a three-relation toy database, without Spark:
  *
  *   python3 perfbench/run.py --self-test
  */
object SelfTest {

  // Chain a –k– b –j– c. Every a row matches every b row (one k value), so
  // a ⋈ b has 1,000,000 rows; only one b row matches c. Joining b with c
  // first is cheap; joining a with b first is not.
  private val n  = 1000
  private val db = LocalDB(Map(
    "ta" -> LocalTable("ta", Vector("k"), Map("k" -> Array.fill(n)(1L))),
    "tb" -> LocalTable("tb", Vector("k", "j"), Map("k" -> Array.fill(n)(1L), "j" -> Array.tabulate(n)(_.toLong))),
    "tc" -> LocalTable("tc", Vector("j"), Map("j" -> Array(5L))),
  ))
  private val q = QuerySpec("toy",
    Vector(Relation("a", "ta"), Relation("b", "tb"), Relation("c", "tc")),
    Vector(JoinClass(Vector((0, "k"), (1, "k"))), JoinClass(Vector((1, "j"), (2, "j")))),
    Map.empty)
  private val g       = JoinGraph.fromSpec(q)
  private val catalog = Analyzer.analyze(db)
  private val cost    = CostModel()
  private val planner = new DPPlanner(cost, catalog)
  private val truth   = new TrueCardinality(g, db)

  private var failures = 0

  /** `errs` must be empty iff `shouldPass`. */
  private def expect(what: String, shouldPass: Boolean, errs: => Vector[String]): Unit = {
    val e  = errs
    val ok = e.isEmpty == shouldPass
    if (!ok) failures += 1
    val verdict = if (e.isEmpty) "passes" else s"fails (${e.head})"
    println(s"${if (ok) "ok  " else "FAIL"} $what: check $verdict")
  }

  private def leaf(i: Int) = LeafPlan(i, 1L << i, truth.card(1L << i).toDouble, 0.0)
  /** A join node; its estimate is the true size where the oracle has one. */
  private def join(l: Plan, r: Plan) = {
    val m = l.mask | r.mask
    JoinPlan(l, r, m, if (g.connected(m)) truth.card(m).toDouble else 1.0, 0.0, Physical.ShuffleHash, buildLeft = true)
  }

  def main(args: Array[String]): Unit = {
    val card = (m: Long) => truth.card(m)

    // Connected-subset counts.
    val perfect = planner.plan(g, new PerfectEstimator(truth))
    expect("estimate counts of the DP", shouldPass = true, Checks.estimateCounts(q, perfect.estimatesBySize))
    expect("estimate counts off by one", shouldPass = false,
      Checks.estimateCounts(q, perfect.estimatesBySize.updated(2, perfect.estimatesBySize(2) + 1)))
    expect("brute-force subset counts of a chain of three", shouldPass = true,
      Option.when(Checks.connectedSubsetsBySize(q) != Map(1 -> 3, 2 -> 2, 3 -> 1))("wrong counts").toVector)

    // Oracle against DuckDB.
    val duck = new DuckRef(db)
    try {
      for (m <- Seq(3L, 6L, 7L))
        expect(s"oracle |$m| against DuckDB", shouldPass = true, Checks.cardMatches("toy", m, truth.card(m), duck.count(q, m)))
      expect("perturbed oracle |3| against DuckDB", shouldPass = false,
        Checks.cardMatches("toy", 3L, truth.card(3L) + 1, duck.count(q, 3L)))
    } finally duck.close()

    // Optimality of the perfect plan.
    val dpTrue = Checks.trueCost(g, perfect.plan, card, cost, catalog)
    val bad    = join(join(leaf(0), leaf(1)), leaf(2)) // (a ⋈ b) ⋈ c
    val badTrue = Checks.trueCost(g, bad, card, cost, catalog)
    expect("perfect DP plan against the (a ⋈ b) ⋈ c tree", shouldPass = true,
      Checks.optimal("toy", perfect.plan.cost, dpTrue, badTrue))
    expect("non-optimal (a ⋈ b) ⋈ c tree as the perfect plan", shouldPass = false,
      Checks.optimal("toy", badTrue, badTrue, dpTrue))
    expect("perfect plan whose reported cost is not its true cost", shouldPass = false,
      Checks.optimal("toy", perfect.plan.cost * 0.5, dpTrue, badTrue))

    // Plan shape.
    expect("shape of the DP plan", shouldPass = true, Checks.planShape(q, g, perfect.plan))
    expect("plan with relation b twice", shouldPass = false,
      Checks.planShape(q, g, join(join(leaf(0), leaf(1)), leaf(1))))
    expect("plan missing relation c", shouldPass = false, Checks.planShape(q, g, join(leaf(0), leaf(1))))
    expect("plan with a cross product a × c", shouldPass = false,
      Checks.planShape(q, g, join(join(leaf(0), leaf(2)), leaf(1))))

    // Re-optimization invariants.
    val stats = new StatsEstimator(catalog)
    val sim   = new SimExecutor(cost, catalog)
    val ro    = new Reoptimizer(cost, catalog)
    val real  = ro.run(g, truth, c => new StatsEstimator(c), new SimBackend(sim, truth), Workloads.Tau, Workloads.MaxSteps)
    expect("real tau=32 run", shouldPass = true, Checks.reoptRun("toy", real, Workloads.Tau, Workloads.MaxSteps, card))
    val lowStep = ro.Step("toy", "toy_tmp0", 3L, truth.card(3L), Workloads.Tau / 2)
    expect("step with Q-error below tau", shouldPass = false,
      Checks.reoptRun("toy", real.copy(steps = Vector(lowStep)), Workloads.Tau, Workloads.MaxSteps, card))
    val offBy1000 = join(leaf(0), leaf(1)).copy(estRows = truth.card(3L) / 1000.0)
    val keeps     = ro.Result(1.0, 0.0, Vector.empty, join(offBy1000, leaf(2)), g)
    expect("final plan keeping a join with Q-error 1000", shouldPass = false,
      Checks.reoptRun("toy", keeps, Workloads.Tau, Workloads.MaxSteps, card))
    expect("the same join after the loop hit maxSteps", shouldPass = true,
      Checks.reoptRun("toy", keeps.copy(steps = Vector.fill(Workloads.MaxSteps)(lowStep.copy(qerror = 1e6))),
        Workloads.Tau, Workloads.MaxSteps, card))

    val statsMs = SimExecutor.toMillis(sim.executionWork(g, truth, planner.plan(g, stats).plan))
    val noop    = ro.run(g, truth, c => new StatsEstimator(c), new SimBackend(sim, truth), Double.MaxValue)
    expect("tau above every Q-error", shouldPass = true, Checks.reoptNoop("toy", noop, statsMs))
    expect("tau above every Q-error, but a step taken", shouldPass = false,
      Checks.reoptNoop("toy", noop.copy(steps = Vector(lowStep)), statsMs))
    expect("tau above every Q-error, but other sim-ms", shouldPass = false,
      Checks.reoptNoop("toy", noop, statsMs + 0.1))

    println(if (failures == 0) "self-test passed" else s"self-test: $failures checks misbehaved")
    sys.exit(if (failures == 0) 0 else 1)
  }
}

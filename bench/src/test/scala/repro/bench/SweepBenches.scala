package repro.bench

import repro.SparkSpec
import repro.harness.{Experiments, Report, Totals, Workbench}

/** Fig 2 analogue: total workload execution under perfect-(n). The paper's
  * finding: n ≤ 3 gives virtually no benefit; the step change arrives at
  * n = 4..5; perfect halves the workload time.
  */
class PerfectNSweepBench extends SparkSpec {
  test("Fig 2: perfect-(n) sweep") {
    val res    = Bench.results(spark)
    val totals = Report.perfectNTotals(res)
    Report.fig2(res).print()
    assert(totals(17) < totals(0), "perfect estimates must beat default")
    // n <= 3 gives little benefit (paper: none up to 3). Note: partially
    // corrected estimates can even *hurt* (paper §IV-E / Fig 5) — our sweep
    // shows that as a bump at small n, so the bound is one-sided.
    assert(totals(3) > 0.7 * totals(0), s"perfect-(3) already helps too much: $totals")
    // the step change arrives in the middle of the range; by n = 8 nearly all
    // of the perfect benefit is realized
    assert(totals(8) < 0.1 * totals(0), s"n=8 should realize most benefit: $totals")
    assert(totals(6) < 0.5 * totals(0), s"benefit should arrive by n=6: $totals")
  }
}

/** Fig 7 analogue: re-optimization threshold sweep, execution + planning. The
  * paper: τ = 32 best; even τ = 2 only mildly worse than the best; every τ
  * beats no re-optimization.
  */
class ThresholdSweepBench extends SparkSpec {
  test("Fig 7: threshold sweep") {
    val res   = Bench.results(spark)
    val taus  = Experiments.Taus
    val sweep = Report.tauTotals(res)
    val Totals(pg, _, _) = Report.totals(res)
    Report.fig7(res).print()
    // every threshold beats not re-optimizing at all
    for (t <- taus) assert(sweep(t)._1 <= pg * 1.05, s"tau=$t worse than pg")
    // a low threshold is not catastrophic (paper: τ=2 within ~10% of best exec)
    val best = taus.map(t => sweep(t)._1).min
    assert(sweep(2.0)._1 <= 1.6 * best, s"tau=2 degraded too much: ${sweep(2.0)._1} vs $best")
  }
}

/** Fig 8 analogue: re-optimization on top of perfect-(n). Paper: helps until
  * about n = 5, after which it is a small risk (~6% at n = 5).
  */
class ReoptPerfectNBench extends SparkSpec {
  test("Fig 8: perfect-(n) with and without re-optimization") {
    val res   = Bench.results(spark)
    val plain = Report.perfectNTotals(res)
    val reopt = Report.reoptNTotals(res)
    Report.fig8(res).print()
    // re-optimization helps markedly when estimates are bad
    assert(reopt(0) < plain(0))
    // and is at worst a mild regression when estimates are already good
    for (n <- Vector(5, 6)) assert(reopt(n) <= plain(n) * 1.3, s"n=$n reopt risk too large")
  }
}

/** Fig 1 analogue (headline): the top-20 longest running queries, *executed
  * for real on Spark* — pg plan vs re-optimization vs perfect plan wall-clock.
  * Paper: re-optimization improves the top-20 by ~27% end-to-end (≥35%
  * execution-only), realizing most of the perfect-estimate benefit.
  */
class Top20Bench extends SparkSpec {
  test("Fig 1: top-20 longest queries, real Spark execution") {
    assume(Bench.RealTop20, "disabled via REPRO_REAL=0")
    val runs = Experiments.top20(Bench.results(spark), Workbench(spark, Experiments.RealSF))
    val Totals(pgT, pfT, reT) = Report.realTotals(runs)
    Report.fig1(runs).print()
    // soft shape assertions — wall-clock at lite scale is noisy
    assert(reT < pgT * 1.15, f"re-optimization should not lose on the top-20 (re=$reT%.0f pg=$pgT%.0f)")
    assert(pfT < pgT * 1.15, "perfect plans should not lose on the top-20")
  }
}

package repro.core.truth

import repro.{SparkSpec, TestData}
import repro.core.opt.JoinGraph
import repro.workload.JobLite

/** Differential check: the oracle equals [[ReferenceCardinality]] (the boxed
  * implementation it replaced) on every connected subset of four JOB-lite
  * queries, one of them the 17-relation q33a. One scope serves each query's
  * sweep, as one DP run uses it.
  */
class TrueCardinalityDiffSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  /** Query name -> the largest subsets whose classNdv is compared. */
  private val queries = Vector("q06a" -> 64, "q19a" -> 64, "q25a" -> 64, "q33a" -> 5)

  for ((name, ndvRels) <- queries) {
    test(s"$name: card and classNdv equal the reference on every connected subset") {
      val g     = JoinGraph.fromSpec(JobLite.byName(name))
      val ref   = new ReferenceCardinality(g, wb.local)
      val scope = new TrueCardinality(g, wb.local).newScope()
      val masks = (1L to g.fullMask).filter(g.connected)
      for (m <- masks) assert(scope.card(m) == ref.card(m), s"card, mask $m")
      for (m <- masks if java.lang.Long.bitCount(m) <= ndvRels; c <- g.classes if (c.relMask & m) != 0)
        assert(scope.classNdv(m, c.origId) == ref.classNdv(m, c.origId), s"classNdv, mask $m class ${c.origId}")
    }
  }
}

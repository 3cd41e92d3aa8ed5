package repro.imdb

import repro.SparkSpec

/** The driver-side generator against the Spark reference it replaces: every
  * table, column and row of [[ImdbLite.generate]] equals what
  * [[ReferenceImdbLite]] computes on Spark, for two seeds.
  */
class ImdbLiteDiffSpec extends SparkSpec {

  private val SF = 0.02

  for (seed <- Vector(42L, 7L)) {
    val cfg = ImdbLite.Config(SF, seed)
    lazy val local = ImdbLite.generate(cfg)

    for (t <- Schema.tables) {
      test(s"seed $seed: $t equals the Spark reference") {
        val df   = ReferenceImdbLite.table(spark, t, cfg)
        val rows = df.collect()
        val tab  = local(t)
        assert(df.columns.toVector == tab.colNames)
        assert(rows.length == tab.rowCount, "row count")
        for ((c, j) <- tab.colNames.zipWithIndex) {
          val want = rows.map(_.getLong(j))
          val got  = tab.col(c)
          val bad  = want.indices.find(i => want(i) != got(i))
          assert(bad.isEmpty, bad.fold("")(i => s"$t.$c row $i: reference ${want(i)}, generated ${got(i)}"))
        }
      }
    }
  }
}

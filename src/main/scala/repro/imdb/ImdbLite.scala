package repro.imdb

import java.nio.ByteBuffer

import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.SparkSession

import repro.core.data.{LocalDB, LocalTable}

/** Synthetic IMDB-shaped dataset ("IMDB-lite") for the JOB-lite workload.
  *
  * The real IMDB snapshot is what makes JOB hard: heavy skew in join keys
  * (popular movies / actors / keywords appear in vastly more fact rows) and
  * correlations that cross join edges (a highly rated movie also has a large
  * cast and many keywords). Both mechanisms are synthesized here:
  *
  *  - Fact tables draw `movie_id` / `person_id` / `keyword_id` / `company_id`
  *    from (approximately) Zipf-distributed ranks, so low ids are "famous".
  *    Because *all* fact tables share the same popularity ranking, per-key
  *    fan-outs correlate across tables — the join-crossing correlation of
  *    paper §IV-B.
  *  - Attribute columns are functions of the entity's popularity rank plus
  *    noise (e.g. `movie_info_idx.rating_bucket` is high for popular movies),
  *    so selective predicates silently select the high fan-out keys — the
  *    skew mechanism of paper §IV-C (the Nasdaq example).
  *
  * Every column is a non-null BIGINT. The tables are generated on the
  * driver, straight into [[LocalDB]] columns, and are a pure function of
  * (sf, seed): each random column is a few counter-based streams, each a
  * function of its seed and row position only (Gray et al., "Quickly
  * Generating Billion-Record Synthetic Databases", SIGMOD 1994). The draws
  * are those of the original Spark generator (Spark's `rand(seed)` over
  * `spark.range` in [[Partitions]] partitions, kept in the tests as
  * `ReferenceImdbLite`), bit for bit, on any machine.
  */
object ImdbLite {

  /** Generation parameters. sf=1.0 is bench scale (~470k rows total). */
  final case class Config(sf: Double = 0.1, seed: Long = 42L)

  /** Random streams per column. Row r of an n-row table draws from stream p
    * with p·n/4 ≤ r < (p+1)·n/4, seeded `seed + p`: the layout of Spark's
    * `rand(seed)` over a 4-partition range.
    */
  val Partitions = 4

  /** All tables of the schema at the given config, generated on the driver. */
  def generate(cfg: Config): LocalDB =
    LocalDB(Schema.tables.map(t => t -> table(t, cfg)).toMap)

  /** The generated database as Spark DataFrames: a lazy view of
    * [[generate]]'s snapshot that builds each table's DataFrame on first use.
    */
  def database(spark: SparkSession, cfg: Config): LocalDB.Frames =
    new LocalDB.Frames(spark, generate(cfg))

  /** Spark's `XORShiftRandom` (a `java.util.Random` whose `next` is an
    * xorshift over a MurmurHash3-scrambled seed), re-implemented because
    * Spark's class is private to Spark.
    */
  private final class XorShiftRandom(init: Long) {
    private var state: Long = {
      val bytes = ByteBuffer.allocate(8).putLong(init).array()
      val lo    = MurmurHash3.bytesHash(bytes, MurmurHash3.arraySeed)
      val hi    = MurmurHash3.bytesHash(bytes, lo)
      (hi.toLong << 32) | (lo.toLong & 0xFFFFFFFFL)
    }

    private def next(bits: Int): Int = {
      var s = state ^ (state << 21)
      s ^= s >>> 35
      s ^= s << 4
      state = s
      (s & ((1L << bits) - 1)).toInt
    }

    /** `java.util.Random.nextDouble`. */
    def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) / (1L << 53).toDouble
  }

  /** The draws of `rand(seed)` over an n-row table. Rows are read in
    * increasing order; a row that is not read does not advance its stream,
    * as in a lazily evaluated `when` branch.
    */
  private final class Rand(seed: Long, n: Int) {
    private var part = -1
    private var end  = 0L
    private var rng: XorShiftRandom = _

    def apply(row: Int): Double = {
      while (row >= end) {
        part += 1
        end = (part + 1).toLong * n / Partitions
        rng = new XorShiftRandom(seed + part)
      }
      rng.nextDouble()
    }
  }

  /** Deterministic pseudo-gender of a person id (1 ~60%, 2 ~40%); usable from
    * any table that references `name.id` so cross-table correlation is exact.
    */
  private def genderOf(id: Long): Long =
    if (Math.floorMod(id * 2654435761L, 10L) < 6L) 1L else 2L

  /** Clamp into [lo, hi]. */
  private def clamp(v: Long, lo: Long, hi: Long): Long = math.min(hi, math.max(lo, v))

  /** Spark's `log(10, x)`. */
  private def log10(x: Long): Double = StrictMath.log(x.toDouble) / StrictMath.log(10.0)

  /** Generate one table of the schema at the given config. */
  def table(name: String, cfg: Config): LocalTable = {
    val n       = Schema.rowCount(name, cfg.sf).toInt
    val nMovie  = Schema.rowCount("title", cfg.sf)
    val nPerson = Schema.rowCount("name", cfg.sf)
    val nChar   = Schema.rowCount("char_name", cfg.sf)
    val nKeyw   = Schema.rowCount("keyword", cfg.sf)
    val nComp   = Schema.rowCount("company_name", cfg.sf)
    val s       = cfg.seed + name.hashCode.toLong // per-table seed base

    def rand(seed: Long): Array[Double] = {
      val r = new Rand(seed, n)
      Array.tabulate(n)(r(_))
    }
    def uni(seed: Long, k: Long): Array[Long] = rand(seed).map(u => (u * k).toLong)

    /** Zipf-like rank draw on [1, nKeys] with pmf ∝ k^-alpha: rank 1 is the
      * most popular. Sampled by the inverse CDF of the continuous bounded
      * Pareto density x^-alpha on [1, nKeys] (log-uniform when alpha = 1),
      * which avoids the mass pile-up at rank 1 that naive clamped inverse-CDF
      * schemes produce.
      */
    def zipf(seed: Long, nKeys: Long, alpha: Double): Array[Long] = {
      val t = math.pow(nKeys.toDouble, 1.0 - alpha) - 1.0
      rand(seed).map { u =>
        val x =
          if (math.abs(alpha - 1.0) < 1e-9) StrictMath.pow(nKeys.toDouble, u)
          else StrictMath.pow(u * t + 1.0, 1.0 / (1.0 - alpha))
        math.min(nKeys, math.max(1L, math.floor(x).toLong))
      }
    }

    lazy val id = Array.tabulate(n)(_ + 1L)
    def ofId(f: Long => Long): Array[Long] = id.map(f)

    val cols: Vector[Array[Long]] = name match {
      case "title" =>
        val kind = zipf(s + 1, 7, 0.8)
        val u    = rand(s + 2)
        val year = Array.tabulate(n)(i =>
          clamp(1880L + (StrictMath.pow(u(i), 0.35) * 120).toLong + kind(i) * 2L, 1880L, 2019L))
        Vector(id, kind, year, uni(s + 3, 50))

      case "name" =>
        Vector(
          id,
          ofId(genderOf),
          rand(s + 1).map(u => (StrictMath.pow(u, 2.0) * 100).toLong),
          rand(s + 2).map(u => (StrictMath.pow(u, 2.0) * 50).toLong),
        )

      case "char_name" =>
        Vector(id, ofId(i => Math.floorMod(i * 7L, 100L)))

      case "keyword" =>
        // group 0 holds the most popular keyword ids (low ranks).
        Vector(id, ofId(i => math.min(19L, (((i - 1L) * 20L).toDouble / n).toLong)))

      case "company_name" =>
        // the biggest companies (low ids, drawn often) sit in country 0.
        Vector(
          id,
          ofId(i => if (i <= math.max(1L, n / 20)) 0L else Math.floorMod(i, 20L)),
          ofId(i => Math.floorMod(i, 50L)),
        )

      case "cast_info" =>
        val person = zipf(s + 1, nPerson, 0.85)
        // role 1..4 for gender-1 persons, 5..12 for gender-2; each branch
        // draws from its own stream, and only on its own rows.
        val r1 = new Rand(s + 4, n)
        val r2 = new Rand(s + 5, n)
        val role = Array.tabulate(n)(i =>
          if (genderOf(person(i)) == 1L) 1L + (r1(i) * 4).toLong else 5L + (r2(i) * 8).toLong)
        Vector(person, zipf(s + 2, nMovie, 0.85), zipf(s + 3, nChar, 0.9), role)

      case "movie_keyword" =>
        Vector(zipf(s + 1, nMovie, 0.85), zipf(s + 2, nKeyw, 0.95))

      case "movie_companies" =>
        Vector(
          zipf(s + 1, nMovie, 0.85),
          zipf(s + 2, nComp, 0.85),
          rand(s + 3).map(u => if (u < 0.7) 1L else 2L),
        )

      case "movie_info" =>
        val movie = zipf(s + 1, nMovie, 0.85)
        val noise = uni(s + 3, 30)
        val group = Array.tabulate(n)(i =>
          clamp((70.0 - log10(movie(i)) * 10.0).toLong + noise(i), 0L, 99L))
        Vector(movie, zipf(s + 2, 40, 0.9), group)

      case "movie_info_idx" =>
        // rating_bucket is high for popular (low-id) movies: the join-crossing
        // correlation that breaks the independence assumption (paper §IV-B).
        val movie  = zipf(s + 1, nMovie, 0.85)
        val noise  = uni(s + 3, 5)
        val rating = Array.tabulate(n)(i =>
          clamp((9.0 - log10(movie(i)) * 1.5).toLong + noise(i) - 2L, 0L, 9L))
        Vector(movie, uni(s + 2, 6).map(35L + _), rating)

      case "person_info" =>
        val person = zipf(s + 1, nPerson, 0.85)
        val noise  = uni(s + 3, 15)
        val group  = Array.tabulate(n)(i =>
          clamp((35.0 - log10(person(i)) * 6.0).toLong + noise(i), 0L, 49L))
        Vector(person, zipf(s + 2, 40, 0.9), group)

      case "aka_name" =>
        Vector(zipf(s + 1, nPerson, 0.85), uni(s + 2, 50))

      case "complete_cast" =>
        Vector(zipf(s + 1, nMovie, 0.85), uni(s + 2, 2).map(1L + _), uni(s + 3, 2).map(3L + _))

      case "movie_link" =>
        Vector(zipf(s + 1, nMovie, 0.85), zipf(s + 2, nMovie, 0.9), zipf(s + 3, 18, 0.9))

      case "info_type"      => Vector(id, ofId(Math.floorMod(_, 5L)))
      case "role_type"      => Vector(id, ofId(Math.floorMod(_, 4L)))
      case "kind_type"      => Vector(id, ofId(Math.floorMod(_, 2L)))
      case "company_type"   => Vector(id, ofId(Math.floorMod(_, 2L)))
      case "comp_cast_type" => Vector(id, ofId(Math.floorMod(_, 2L)))
      case "link_type"      => Vector(id, ofId(Math.floorMod(_, 6L)))

      case other => throw new IllegalArgumentException(s"unknown table: $other")
    }
    // Columns in Schema.columns order.
    val names = Schema.columns(name)
    LocalTable(name, names, names.zip(cols).toMap)
  }
}

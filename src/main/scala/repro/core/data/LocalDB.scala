package repro.core.data

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import scala.collection.{immutable, mutable}
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** A driver-side, columnar snapshot of one table (all columns are BIGINT). */
final case class LocalTable(name: String, colNames: Vector[String], cols: Map[String, Array[Long]]) {
  val rowCount: Int = if (colNames.isEmpty) 0 else cols(colNames.head).length
  def col(c: String): Array[Long] =
    cols.getOrElse(c, throw new NoSuchElementException(s"$name.$c"))
}

/** Driver-side snapshot of the whole database.
  *
  * It is where the data lives: the generator writes it directly
  * ([[repro.imdb.ImdbLite.generate]]), and Spark sees it only through a lazy
  * [[LocalDB.Frames]] view. It backs two subsystems that in the paper's setup
  * were served by PostgreSQL itself: ANALYZE-style statistics collection
  * ([[repro.core.stats.Analyzer]]) and the EXPLAIN ANALYZE true-cardinality
  * oracle ([[repro.core.truth.TrueCardinality]]). IMDB-lite is small enough
  * (≲1M rows total) that an exact driver-side copy is the simplest honest
  * substrate for both.
  */
final case class LocalDB(tables: Map[String, LocalTable]) {
  def apply(name: String): LocalTable =
    tables.getOrElse(name, throw new NoSuchElementException(s"table $name"))
}

object LocalDB {

  /** A snapshot as Spark DataFrames, one per table. Each DataFrame is built
    * over the snapshot's rows on first access and then reused, so a run that
    * never executes on Spark builds none. Keys come from the snapshot.
    */
  final class Frames(spark: SparkSession, val local: LocalDB)
      extends immutable.AbstractMap[String, DataFrame] {
    private val built = mutable.HashMap.empty[String, DataFrame]

    def get(name: String): Option[DataFrame] =
      local.tables.get(name).map(t => synchronized(built.getOrElseUpdate(name, frame(t))))

    private def frame(t: LocalTable): DataFrame = {
      val cols = t.colNames.map(t.col)
      val rows = Vector.tabulate(t.rowCount)(r => Row.fromSeq(cols.map(_(r))))
      val schema = StructType(t.colNames.map(StructField(_, LongType, nullable = false)))
      spark.createDataFrame(rows.asJava, schema)
    }

    def iterator: Iterator[(String, DataFrame)] = keysIterator.map(k => k -> this(k))
    override def keysIterator: Iterator[String]     = local.tables.keysIterator
    override def keySet: immutable.Set[String]      = local.tables.keySet
    override def contains(name: String): Boolean    = local.tables.contains(name)
    override def knownSize: Int                     = local.tables.size

    def removed(name: String): Map[String, DataFrame] = Map.from(this).removed(name)
    def updated[V >: DataFrame](name: String, df: V): Map[String, V] = Map.from(this).updated(name, df)
  }

  /** The snapshot behind a Spark view; no Spark job runs. */
  def collect(db: Frames): LocalDB = db.local

  /** SHA-256 over every table (by name), column (in order) and value
    * (big-endian) of the snapshot: equal digests mean equal data.
    */
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
}

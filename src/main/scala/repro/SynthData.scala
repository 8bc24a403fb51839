package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Deterministic synthetic input data for the Spark-side checks: the
  * Nexmark-lite streams, whose query semantics are validated against
  * DuckDB, and a uniform key column for the parallelism calibration. Stream
  * sizes scale linearly with the scale factor `sf`; generators are deterministic
  * in (sf, seed) so the DuckDB oracle sees identical input.
  */
object SynthData {
  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )
  }

  // --- Nexmark-lite (auction-site) generators -------------------------
  //
  // The StreamTune evaluation uses the Nexmark benchmark's three streams:
  // persons, auctions and bids. These generators produce the bounded,
  // deterministic analogue used to validate the Nexmark query semantics
  // against DuckDB (repro.workloads.NexmarkQueries); `*_epoch` is a
  // discrete event-time bucket standing in for the stream timestamp so
  // window queries stay deterministic.

  private val NPersonsPerSf  = 100_000L
  private val NAuctionsPerSf = 300_000L
  private val NBidsPerSf     = 1_000_000L
  val NexmarkEpochs          = 100

  def persons(spark: SparkSession, sf: Double = 0.01, seed: Long = 11): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NPersonsPerSf, sf) + 1).toDF("p_id").select(
      $"p_id",
      concat(lit("person-"), $"p_id")                       as "p_name",
      element_at(array(lit("OR"), lit("ID"), lit("CA"), lit("NY"), lit("WA"), lit("TX")),
                 (rand(seed) * 6 + 1).cast("int"))          as "p_state",
      (rand(seed + 1) * NexmarkEpochs).cast(IntegerType)    as "p_epoch",
    )
  }

  def auctions(spark: SparkSession, sf: Double = 0.01, seed: Long = 12): DataFrame = {
    import spark.implicits._
    val nPers = n(NPersonsPerSf, sf)
    spark.range(1, n(NAuctionsPerSf, sf) + 1).toDF("a_id").select(
      $"a_id",
      (rand(seed) * nPers + 1).cast(LongType)               as "a_seller",
      (rand(seed + 1) * 20 + 1).cast(IntegerType)           as "a_category",
      (rand(seed + 2) * NexmarkEpochs).cast(IntegerType)    as "a_epoch",
      round(rand(seed + 3) * 1000 + 10, 2)                  as "a_reserve",
    )
  }

  def bids(spark: SparkSession, sf: Double = 0.01, seed: Long = 13): DataFrame = {
    import spark.implicits._
    val nAuc  = n(NAuctionsPerSf, sf)
    val nPers = n(NPersonsPerSf, sf)
    spark.range(n(NBidsPerSf, sf)).select(
      (rand(seed)     * nAuc + 1).cast(LongType)            as "b_auction",
      (rand(seed + 1) * nPers + 1).cast(LongType)           as "b_bidder",
      round(rand(seed + 2) * 10000 + 1, 2)                  as "b_price",
      (rand(seed + 3) * NexmarkEpochs).cast(IntegerType)    as "b_epoch",
    )
  }
}

package repro.dataflow

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Grounds the substrate's monotone processing-ability assumption (the
  * paper's Fig. 4) on *real* Spark execution: time a fixed shuffle+aggregate
  * workload at different `repartition(p)` parallelism degrees and report the
  * achieved records/second. Used by tests (lenient — wall-clock on a shared
  * box) and the Fig-4 analogue note in EXPERIMENTS.md.
  */
object Calibration {

  /** `rows` rows of a key uniform over 1..nKeys and a uniform value,
    * deterministic in `seed`.
    */
  private[dataflow] def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long)
      : DataFrame =
    spark.range(rows).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )

  /** Records/second achieved aggregating `rows` keyed rows at parallelism p. */
  def measuredRate(spark: SparkSession, rows: Long, parallelism: Int): Double = {
    val df = uniformKeys(spark, rows, 10_000, seed = 7)
      .repartition(parallelism)
      .groupBy("k")
      .agg(sum("v") as "s", count(lit(1)) as "c")
    val t0 = System.nanoTime()
    df.write.format("noop").mode("overwrite").save()
    val secs = (System.nanoTime() - t0) / 1e9
    rows / math.max(1e-9, secs)
  }

  /** (parallelism, records/sec) series across a parallelism sweep. */
  def sweep(spark: SparkSession, rows: Long, ps: Seq[Int]): Seq[(Int, Double)] = {
    // Warm-up run so JIT/shuffle setup does not distort the first point.
    measuredRate(spark, rows / 4, ps.head)
    ps.map(p => p -> measuredRate(spark, rows, p))
  }
}

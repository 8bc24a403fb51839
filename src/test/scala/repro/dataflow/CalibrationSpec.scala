package repro.dataflow

import repro.SparkSpec

/** Fig. 4 analogue on real Spark execution: processing rate of a
  * shuffle+aggregate stage as `repartition(p)` parallelism grows. Lenient
  * thresholds — wall-clock on a shared box — but the monotone-trend claim
  * the whole substrate rests on is exercised against the real engine.
  */
class CalibrationSpec extends SparkSpec {

  test("uniform keys cover the key space roughly evenly") {
    val distinct = Calibration.uniformKeys(spark, 20000, 100, seed = 4).select("k").distinct().count()
    assert(distinct > 90)
  }

  test("measured rate is positive") {
    assert(Calibration.measuredRate(spark, 50_000, 2) > 0)
  }

  test("parallelism sweep returns one point per requested degree") {
    val s = Calibration.sweep(spark, 50_000, Seq(1, 2, 4))
    assert(s.map(_._1) == Seq(1, 2, 4))
    assert(s.forall(_._2 > 0))
  }

  test("higher parallelism does not collapse throughput (Fig 4 direction)") {
    val s = Calibration.sweep(spark, 400_000, Seq(1, 8))
    val r1 = s.head._2
    val r8 = s.last._2
    // Real monotone speedups are noisy on shared hardware; require only
    // that p=8 is not dramatically slower than p=1.
    assert(r8 > r1 * 0.5, s"rate(8)=$r8 rate(1)=$r1")
  }
}

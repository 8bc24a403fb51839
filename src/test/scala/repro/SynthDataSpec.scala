package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  private val sf = 0.002

  test("generators are deterministic in (sf, seed)") {
    val a = SynthData.bids(spark, sf).agg(sum("b_price")).collect()(0).getDouble(0)
    val b = SynthData.bids(spark, sf).agg(sum("b_price")).collect()(0).getDouble(0)
    assert(a == b)
  }

  test("different seeds give different data") {
    val a = SynthData.bids(spark, sf, seed = 1).agg(sum("b_price")).collect()(0).getDouble(0)
    val b = SynthData.bids(spark, sf, seed = 2).agg(sum("b_price")).collect()(0).getDouble(0)
    assert(a != b)
  }

  test("row counts scale with the scale factor") {
    assert(SynthData.persons(spark, 0.002).count() * 4 ==
      SynthData.persons(spark, 0.008).count())
  }

  test("persons have valid states and epochs") {
    val rows = SynthData.persons(spark, sf).collect()
    assert(rows.nonEmpty)
    rows.foreach { r =>
      assert(Set("OR", "ID", "CA", "NY", "WA", "TX").contains(r.getAs[String]("p_state")))
      val e = r.getAs[Int]("p_epoch")
      assert(e >= 0 && e < SynthData.NexmarkEpochs)
    }
  }

  test("auction sellers reference the person key space") {
    val nPersons = SynthData.persons(spark, sf).count()
    val bad = SynthData.auctions(spark, sf)
      .filter(col("a_seller") < 1 || col("a_seller") > nPersons).count()
    assert(bad == 0)
  }

  test("bids reference the auction key space") {
    val nAuctions = SynthData.auctions(spark, sf).count()
    val bad = SynthData.bids(spark, sf)
      .filter(col("b_auction") < 1 || col("b_auction") > nAuctions).count()
    assert(bad == 0)
  }

  test("bid prices are positive and bounded") {
    val mm = SynthData.bids(spark, sf).agg(min("b_price"), max("b_price")).collect()(0)
    assert(mm.getDouble(0) >= 1.0 && mm.getDouble(1) <= 10001.0)
  }

  test("uniform keys cover the key space roughly evenly") {
    val distinct = SynthData.uniformKeys(spark, 20000, 100).select("k").distinct().count()
    assert(distinct > 90)
  }
}

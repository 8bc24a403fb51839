package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Pretrain, TinyPretrain}
import repro.dataflow.SimMode
import repro.workloads.{Nexmark, Pqp}

class EvaluationSpec extends AnyFunSuite {

  test("percentile picks order statistics") {
    val xs = Vector(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    assert(Evaluation.percentile(xs, 0.0) == 1.0)
    assert(Evaluation.percentile(xs, 0.5) == 6.0)
    assert(Evaluation.percentile(xs, 0.99) == 10.0)
    assert(Evaluation.percentile(Vector.empty, 0.5) == 0.0)
  }

  test("runOne drives the full 120-change pattern with DS2") {
    val w = Pqp.linear(4)
    val s = Evaluation.runOne(w, SimMode.Flink, "DS2", Evaluation.ds2Factory(SimMode.Flink))
    assert(s.processes == 120)
    assert(s.method == "DS2" && s.group == "Linear")
    assert(s.parallelismAt10Wu > 0)
    assert(s.avgReconfigurations >= 0 && s.avgReconfigurations <= 4)
    assert(s.latencyP50At10Wu > 0 && s.latencyP95At10Wu >= s.latencyP50At10Wu)
  }

  test("evaluate runs methods x workloads in parallel deterministically") {
    val wl = Vector(Pqp.linear(5), Pqp.linear(6), Nexmark.q3)
    val zeroTune = Pretrain.pretrainZeroTune(TinyPretrain.workloads, SimMode.Flink, runsPer = 8, epochs = 3)
    val methods = Seq(
      "DS2" -> Evaluation.ds2Factory(SimMode.Flink),
      "ContTune" -> Evaluation.contTuneFactory(SimMode.Flink),
      "StreamTune(SVM)" -> Evaluation.streamTuneFactory(TinyPretrain.pre, Evaluation.svmModel),
      "ZeroTune" -> Evaluation.zeroTuneFactory(zeroTune, SimMode.Flink),
    )
    val a = Evaluation.evaluate(wl, SimMode.Flink, methods, threads = 4)
    val b = Evaluation.evaluate(wl, SimMode.Flink, methods, threads = 1)
    assert(a == b)
    assert(a.size == 12)
  }

  test("byGroup aggregates PQP templates: mean reconfigs, summed bp") {
    val stats = Vector(
      WorkloadStats("DS2", "Linear-0", "Linear", "Flink", 120, 120, 1.0, 2, 10, 0.1, 0.2, 0.3),
      WorkloadStats("DS2", "Linear-1", "Linear", "Flink", 120, 240, 2.0, 3, 20, 0.1, 0.2, 0.3),
    )
    val rows = Evaluation.byGroup(stats)
    assert(rows.size == 1)
    assert(rows.head.avgReconfigurations == 1.5)
    assert(rows.head.backpressureOccurrences == 5)
    assert(rows.head.parallelismAt10Wu == 15.0)
  }

  test("group rows follow the paper's table ordering") {
    val stats = Vector(
      WorkloadStats("DS2", "3-way-join-0", "3-way-join", "Flink", 120, 0, 0, 0, 1, 0, 0, 0),
      WorkloadStats("DS2", "Q1", "Q1", "Flink", 120, 0, 0, 0, 1, 0, 0, 0),
      WorkloadStats("DS2", "Linear-0", "Linear", "Flink", 120, 0, 0, 0, 1, 0, 0, 0),
    )
    assert(Evaluation.byGroup(stats).map(_.group) == Vector("Q1", "Linear", "3-way-join"))
  }

  test("formatGroupTable renders every method column") {
    val stats = Vector(
      WorkloadStats("DS2", "Q1", "Q1", "Flink", 120, 0, 1.25, 0, 10, 0, 0, 0),
      WorkloadStats("StreamTune", "Q1", "Q1", "Flink", 120, 0, 1.0, 0, 9, 0, 0, 0),
    )
    val t = PaperTables.formatGroupTable("t", stats, _.avgReconfigurations)
    assert(t.contains("DS2") && t.contains("StreamTune") && t.contains("Q1"))
  }

  test("Table II in code equals the paper's Table II") {
    assert(PaperTables.tableIIFromCode == PaperTables.tableII)
  }

  test("GED timing harness reports both regimes on a small population") {
    val rows = PaperTables.gedTiming(sizes = Seq(10, 20))
    assert(rows.map(_._1) == Seq(10, 20))
    rows.foreach { case (_, direct, lsa) => assert(direct > 0 && lsa > 0) }
  }
}

package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Pretrain, StreamTuneSession, TuningSession}
import repro.dataflow.SimMode
import repro.harness.{Evaluation, PaperTables}
import repro.workloads.{Pqp, Workloads}

/** Fig. 11a — the fine-tuning model choice: SVM and XGBoost (both under the
  * monotonic constraint) vs an unconstrained NN.
  */
class AblationBench extends AnyFunSuite {
  test("Fig 11a: fine-tune model ablation on Q3/Q5/Q8") {
    val stats = BenchData.ablationStats
    println(PaperTables.formatGroupTable(
      "Fig 11a: backpressure occurrences by fine-tune model",
      stats, _.backpressureOccurrences.toDouble))
    println(PaperTables.formatGroupTable(
      "Fig 11a: total parallelism @ 10Wu by fine-tune model",
      stats, _.parallelismAt10Wu))

    def bp(m: String) = Seq("Q3", "Q5", "Q8")
      .map(g => BenchData.groupMetric(stats, m, g, _.backpressureOccurrences.toDouble)).sum

    println(f"[Fig 11a] total backpressure: SVM=${bp("StreamTune(SVM)")}%.0f " +
      f"XGBoost=${bp("StreamTune(XGBoost)")}%.0f NN=${bp("StreamTune(NN)")}%.0f")
    // The monotonic models eliminate backpressure; the NN, whose binary
    // search is unsound without monotonicity, does not reliably.
    assert(bp("StreamTune(SVM)") == 0.0)
    assert(bp("StreamTune(XGBoost)") <= 2.0)
    assert(bp("StreamTune(NN)") >= bp("StreamTune(SVM)"))
  }
}

/** Fig. 11b — similarity-center computation: direct GED vs AStar+-LSa. */
class GedTimingBench extends AnyFunSuite {
  test("Fig 11b: similarity-center time, direct vs A*-LSa") {
    // An untimed 40-DAG pass first, so the first timed row does not time
    // JIT compilation of the GED search.
    PaperTables.gedTiming(Seq(40))
    val rows = PaperTables.gedTiming()
    println(PaperTables.formatGedTiming(rows))
    // LSa wins, and its advantage grows with the population (paper: 99.65%
    // reduction at 400 DAGs).
    val (_, directLast, lsaLast) = rows.last
    assert(lsaLast < directLast, "A*-LSa should beat direct GED at scale")
    val firstRatio = rows.head._3 / rows.head._2
    val lastRatio  = lsaLast / directLast
    assert(lastRatio <= firstRatio * 1.5, "LSa advantage should not shrink with scale")
  }
}

/** Fig. 9 numbers — resource overhead: online recommendation time per
  * method, and offline pre-training cost versus dataset size.
  */
class OverheadBench extends AnyFunSuite {
  test("Fig 9a: average recommendation time per tuning process") {
    val wls = Seq(Pqp.linear(2), Pqp.twoWayJoin(4), Pqp.threeWayJoin(8))
    val methods: Seq[(String, repro.workloads.Workload => TuningSession)] = Seq(
      "DS2" -> Evaluation.ds2Factory(SimMode.Flink),
      "ContTune" -> Evaluation.contTuneFactory(SimMode.Flink),
      "StreamTune" -> Evaluation.streamTuneFactory(BenchData.pretrained, Evaluation.svmModel),
    )
    val n = 30
    def run(session: TuningSession, wl: repro.workloads.Workload): Unit = {
      var cur = TuningSession.initialConfig(wl)
      (0 until n).foreach { i =>
        val m = 1 + (i * 7) % 10
        cur = session.tuneProcess(m.toDouble, cur).parallelisms
      }
    }
    // An untimed pass of every (method, job) on its own session first, so
    // no timed pass times JIT compilation, not even the first job's. Each
    // timed pass runs a fresh session; the median of 3 is reported.
    for (wl <- wls; (_, mk) <- methods) run(mk(wl), wl)
    println(f"${"method"}%-12s${"query"}%-16s${"ms/process"}%12s")
    for (wl <- wls; (name, mk) <- methods) {
      val passes = Seq.fill(3) {
        val session = mk(wl)
        val t0 = System.nanoTime()
        run(session, wl)
        (System.nanoTime() - t0) / 1e6 / n
      }
      val ms = passes.sorted.apply(1)
      println(f"$name%-12s${wl.key}%-16s$ms%12.2f")
      assert(ms < 5000, s"$name absurdly slow")
    }
  }

  test("Fig 9b: pre-training cost grows with the dataset size") {
    val subset = Workloads.all.take(12)
    val rows = Seq(10, 20, 40).map { runsPer =>
      val t0 = System.nanoTime()
      Pretrain.pretrain(subset, SimMode.Flink, runsPer = runsPer, k = 3, epochs = 10)
      runsPer -> (System.nanoTime() - t0) / 1e9
    }
    println(f"${"runs/workload"}%14s${"pretrain (s)"}%14s")
    rows.foreach { case (n, s) => println(f"$n%14d$s%14.2f") }
    assert(rows.last._2 > rows.head._2 * 0.8, "cost should grow with data")
  }
}

package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.PaperTables

/** Table II — the source-rate unit table is a spec: code must equal paper. */
class TableIIBench extends AnyFunSuite {
  test("Table II: source-rate units match the paper verbatim") {
    assert(PaperTables.tableIIFromCode == PaperTables.tableII)
    println(PaperTables.formatTableII)
  }
}

/** Table III — backpressure occurrences during tuning, per method x query
  * group, over the full 120-change periodic pattern (PQP groups sum their
  * template's queries).
  */
class TableIIIBench extends AnyFunSuite {
  test("Table III: backpressure occurrences (paper vs measured)") {
    val stats = BenchData.flinkStats
    println(PaperTables.formatGroupTable(
      "Table III: backpressure occurrences during tuning",
      stats, _.backpressureOccurrences.toDouble, PaperTables.paperTableIII))

    def bp(m: String, g: String) =
      BenchData.groupMetric(stats, m, g, _.backpressureOccurrences.toDouble)

    // Shape assertions (the paper's qualitative claims):
    // 1. StreamTune eliminates backpressure everywhere.
    repro.workloads.Workloads.groups.foreach { g =>
      assert(bp("StreamTune", g) == 0.0, s"StreamTune backpressure in $g")
    }
    // 2. ZeroTune (overprovisioning) is near backpressure-free on PQP; a
    //    few residual incidents are tolerated — its job-level mean-pooled
    //    cost model can dilute a single hot operator, which is precisely
    //    the paper's C2 critique of ZeroTune.
    val ztTotal = Seq("Linear", "2-way-join", "3-way-join").map(bp("ZeroTune", _)).sum
    assert(ztTotal <= 12.0, s"ZeroTune backpressure total $ztTotal")
    // 3. The stateless Nexmark queries are easy for every method.
    Seq("Q1", "Q2").foreach { g =>
      assert(bp("DS2", g) + bp("ContTune", g) <= 4, s"too much backpressure on $g")
    }
    // 4. Rate-based tuners do hit backpressure somewhere on the join-heavy
    //    workloads, unlike StreamTune.
    val joinGroups = Seq("Q3", "Q5", "Q8", "2-way-join", "3-way-join")
    assert(joinGroups.map(g => bp("DS2", g) + bp("ContTune", g)).sum > 0)
  }
}

/** Fig. 6 numbers — final total parallelism at 10*Wu (Flink mode). */
class ParallelismBench extends AnyFunSuite {
  test("Fig 6: total parallelism at 10Wu (Flink)") {
    val stats = BenchData.flinkStats
    println(PaperTables.formatGroupTable(
      "Fig 6: total parallelism @ 10Wu (Flink mode)", stats, _.parallelismAt10Wu))

    def par(m: String, g: String) = BenchData.groupMetric(stats, m, g, _.parallelismAt10Wu)

    // ZeroTune consistently recommends the highest parallelism on PQP.
    Seq("Linear", "2-way-join", "3-way-join").foreach { g =>
      assert(par("ZeroTune", g) > par("DS2", g) * 2, s"ZeroTune not highest on $g")
      assert(par("ZeroTune", g) > par("StreamTune", g) * 2)
    }
    // StreamTune is at or below the rate-based tuners on the PQP templates
    // (the paper's up-to-30.8% parallelism reduction lives here).
    Seq("Linear", "2-way-join", "3-way-join").foreach { g =>
      assert(par("StreamTune", g) <= math.min(par("DS2", g), par("ContTune", g)) * 1.10,
        s"StreamTune not competitive on $g")
    }
    // Q1-Q3 are similar across DS2/ContTune/StreamTune (within ~25%).
    Seq("Q1", "Q2", "Q3").foreach { g =>
      val vals = Seq(par("DS2", g), par("ContTune", g), par("StreamTune", g))
      assert(vals.max <= vals.min * 1.25, s"$g spread too wide: $vals")
    }
  }
}

/** Fig. 7a numbers — average reconfigurations per tuning process. */
class ReconfigBench extends AnyFunSuite {
  test("Fig 7a: average reconfigurations per process") {
    val stats = BenchData.flinkStats
    println(PaperTables.formatGroupTable(
      "Fig 7a: avg reconfigurations per tuning process", stats, _.avgReconfigurations))

    def re(m: String, g: String) = BenchData.groupMetric(stats, m, g, _.avgReconfigurations)

    // DS2 (no history) needs the most reconfigurations on Nexmark.
    val nexmark = Seq("Q1", "Q2", "Q3", "Q5", "Q8")
    assert(nexmark.map(re("DS2", _)).sum > nexmark.map(re("StreamTune", _)).sum,
      "DS2 should reconfigure more than StreamTune")
    assert(nexmark.map(re("DS2", _)).sum > nexmark.map(re("ContTune", _)).sum,
      "DS2 should reconfigure more than ContTune")
    // StreamTune needs no more reconfigurations than ContTune on PQP (the
    // paper's 29.6% reduction claim, directionally).
    val pqp = Seq("Linear", "2-way-join", "3-way-join")
    assert(pqp.map(re("StreamTune", _)).sum <= pqp.map(re("ContTune", _)).sum * 1.15)
  }
}

/** Fig. 8 numbers — Timely Dataflow: parallelism + per-epoch latency. */
class TimelyBench extends AnyFunSuite {
  test("Fig 8: Timely-mode parallelism and latency percentiles") {
    val stats = BenchData.timelyStats
    println(PaperTables.formatGroupTable(
      "Fig 8a: total parallelism @ 10Wu (Timely mode)", stats, _.parallelismAt10Wu))
    println(PaperTables.formatTimelyLatencies(stats))

    def par(m: String, g: String) = BenchData.groupMetric(stats, m, g, _.parallelismAt10Wu)
    // The headline: StreamTune needs drastically less parallelism on Timely
    // (paper: up to 83.3% less on Q8) because it never consumes the
    // spin-inflated useful-time metric.
    Seq("Q3", "Q5", "Q8").foreach { g =>
      val reduction = 1.0 - par("StreamTune", g) / par("DS2", g)
      println(f"[Fig 8] $g: StreamTune parallelism reduction vs DS2 = ${100 * reduction}%.1f%%")
      assert(reduction > 0.4, s"$g reduction only ${100 * reduction}%")
    }
    // ... while keeping per-epoch latency comparable (same ballpark).
    stats.filter(_.method.startsWith("StreamTune")).foreach { s =>
      val ds2 = stats.find(x => x.method == "DS2" && x.workloadKey == s.workloadKey).get
      assert(s.latencyP95At10Wu < ds2.latencyP95At10Wu * 2.0,
        s"${s.workloadKey} latency not comparable")
    }
  }
}

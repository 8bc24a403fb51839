package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.dataflow._
import repro.harness.{Evaluation, WorkloadStats}
import repro.workloads.{Nexmark, Pqp}

class GpSpec extends AnyFunSuite {

  test("posterior interpolates observations (noise-limited)") {
    val gp = new Gp(noiseSd = 0.01)
    gp.fit(Seq(0.1 -> 0.2, 0.5 -> 1.0, 0.9 -> 1.8))
    val (mu, sd) = gp.posterior(0.5)
    assert(math.abs(mu - 1.0) < 0.05)
    assert(sd < 0.1)
  }

  test("posterior reverts to the pessimistic prior far from data") {
    val gp = new Gp()
    gp.fit(Seq(0.9 -> 1.0))
    val (muFar, sdFar) = gp.posterior(0.05)
    assert(math.abs(muFar) < 0.1) // zero prior mean
    assert(sdFar > 0.8)           // near-prior uncertainty
  }

  test("no data means (0, 1): maximal pessimism for an LCB user") {
    val gp = new Gp()
    gp.fit(Seq.empty)
    assert(gp.posterior(0.3) == ((0.0, 1.0)))
  }

  test("uncertainty shrinks near observations as data accumulates") {
    val gp1 = new Gp(); gp1.fit(Seq(0.5 -> 1.0))
    val gp2 = new Gp(); gp2.fit(Seq(0.45 -> 0.95, 0.5 -> 1.0, 0.55 -> 1.05))
    assert(gp2.posterior(0.5)._2 <= gp1.posterior(0.5)._2 + 1e-9)
  }
}

class BaselinesSpec extends AnyFunSuite {

  private val wl = Pqp.twoWayJoin(2)
  private def initial = TuningSession.initialConfig(wl)

  test("DS2 eliminates backpressure at a high rate") {
    val s = new Ds2Session(wl, SimMode.Flink)
    val r = s.tuneProcess(10, initial)
    assert(r.backpressureAtEnd == 0)
    assert(r.reconfigurations >= 1)
    assert(!r.finalRun.jobBackpressure)
  }

  test("DS2 scales down after the rate drops") {
    val s = new Ds2Session(wl, SimMode.Flink)
    val hi = s.tuneProcess(10, initial)
    val lo = s.tuneProcess(1, hi.parallelisms)
    assert(lo.parallelisms.values.sum < hi.parallelisms.values.sum)
    assert(lo.backpressureAtEnd == 0)
  }

  test("DS2 keeps sources at parallelism 1") {
    val s = new Ds2Session(wl, SimMode.Flink)
    val r = s.tuneProcess(10, initial)
    wl.dag.sources.foreach(src => assert(r.parallelisms(src.id) == 1))
  }

  test("DS2 on Timely overprovisions (spinning inflates useful time)") {
    val w = Nexmark.q8
    val ds2 = new Ds2Session(w, SimMode.Timely)
    val r = ds2.tuneProcess(10, TuningSession.initialConfig(w))
    // True optimum: sum of minimal sufficient parallelism per op.
    val trueNeeded = r.finalRun.metricsInTopoOrder.map { m =>
      val op = w.dag.byId(m.id)
      if (op.opType == OpType.Source) 1
      else Simulator.optimalParallelism(op, m.offeredRate, SimMode.Timely, 40)
    }.sum
    assert(r.parallelisms.values.sum > trueNeeded * 2,
      s"DS2 total ${r.parallelisms.values.sum} vs needed $trueNeeded")
  }

  test("ContTune eliminates backpressure and remembers its history") {
    val s = new ContTuneSession(wl, SimMode.Flink)
    val first = s.tuneProcess(10, initial)
    assert(first.backpressureAtEnd == 0)
    // Re-visiting the same rate with history converges with few deploys.
    val mid = s.tuneProcess(3, first.parallelisms)
    val again = s.tuneProcess(10, mid.parallelisms)
    assert(again.backpressureAtEnd == 0)
    assert(again.reconfigurations <= first.reconfigurations + 1)
  }

  test("ContTune respects the physical maximum parallelism") {
    val s = new ContTuneSession(Nexmark.q2, SimMode.Flink)
    val r = s.tuneProcess(10, TuningSession.initialConfig(Nexmark.q2))
    assert(r.parallelisms.values.forall(_ <= SimConstants.maxParallelismFlink))
  }

  test("ZeroTune performs a single reconfiguration per rate change") {
    val enc = Pretrain.pretrainZeroTune(Seq(wl), SimMode.Flink, runsPer = 8, epochs = 3)
    val s = new ZeroTuneSession(enc, wl, SimMode.Flink)
    val r = s.tuneProcess(5, initial)
    assert(r.reconfigurations <= 1)
  }

  test("ZeroTune recommends much higher parallelism than the baselines") {
    val enc = Pretrain.pretrainZeroTune(Seq(wl), SimMode.Flink, runsPer = 10, epochs = 5)
    val zt = new ZeroTuneSession(enc, wl, SimMode.Flink)
    val ds2 = new Ds2Session(wl, SimMode.Flink)
    val rz = zt.tuneProcess(10, initial)
    val rd = ds2.tuneProcess(10, initial)
    assert(rz.parallelisms.values.sum > rd.parallelisms.values.sum * 2)
  }

  test("required-rate estimation tracks true propagation within noise") {
    val dag = wl.dag
    val rates = wl.rates(5, SimMode.Flink)
    val obs = Simulator.run(dag, rates, dag.ops.map(_.id -> 10).toMap, SimMode.Flink)
    val req = RateEstimator.requiredRates(dag, rates, obs)
    dag.topoOrder.foreach { id =>
      val trueReq = obs.ops(id).offeredRate
      if (trueReq > 0) {
        assert(req(id) > trueReq * 0.5 && req(id) < trueReq * 2.0,
          s"$id req=${req(id)} true=$trueReq")
      }
    }
  }

  test("DS2 and ContTune decisions over the full rate pattern are pinned (Flink)") {
    // Exact figures of the reference run: a change to any rate-based
    // decision on these two jobs moves at least one of them.
    val expected = Seq(
      WorkloadStats("DS2", "3-way-join-8", "3-way-join", "Flink", 120, 273, 2.275, 1, 32.0,
        0.3324725137330773, 0.34800082760524864, 0.34851421155629925),
      WorkloadStats("ContTune", "3-way-join-8", "3-way-join", "Flink", 120, 160, 1.3333333333333333, 0, 31.0,
        0.3239036127634466, 0.33903171134472987, 0.33953186371706573),
      WorkloadStats("DS2", "Q5", "Q5", "Flink", 120, 233, 1.9416666666666667, 0, 49.0,
        0.3336898833011864, 0.34849590336624575, 0.3501011745838363),
      WorkloadStats("ContTune", "Q5", "Q5", "Flink", 120, 127, 1.0583333333333333, 0, 50.0,
        0.3305263419811447, 0.3451919938222778, 0.34678204629311915),
    )
    val actual = for {
      w <- Seq(Pqp.threeWayJoin(8), Nexmark.q5)
      (name, mk) <- Seq("DS2" -> Evaluation.ds2Factory(SimMode.Flink),
        "ContTune" -> Evaluation.contTuneFactory(SimMode.Flink))
    } yield Evaluation.runOne(w, SimMode.Flink, name, mk)
    assert(actual == expected)
  }
}

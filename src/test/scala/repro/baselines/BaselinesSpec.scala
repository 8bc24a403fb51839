package repro.baselines

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.dataflow._
import repro.harness.{Evaluation, WorkloadStats}
import repro.workloads.{Nexmark, Pqp}

/** The GP as it was before it moved onto the parallelism grid: arbitrary
  * x, a kernel evaluation per pair, boxed tuples per posterior. The body is
  * kept verbatim as the oracle the grid GP must match bit for bit.
  */
final class ReferenceGp(noiseSd: Double = 0.05) {
  private val lengthScale = 0.15

  private var xs: Array[Double] = Array.empty
  private var ys: Array[Double] = Array.empty
  private var chol: Array[Array[Double]] = _
  private var alpha: Array[Double] = _

  private def k(a: Double, b: Double): Double =
    math.exp(-(a - b) * (a - b) / (2 * lengthScale * lengthScale))

  def fit(points: Seq[(Double, Double)]): Unit = {
    xs = points.map(_._1).toArray
    ys = points.map(_._2).toArray
    val n = xs.length
    if (n == 0) { chol = null; alpha = null; return }
    val m = Array.tabulate(n, n) { (i, j) =>
      k(xs(i), xs(j)) + (if (i == j) noiseSd * noiseSd else 0.0)
    }
    chol = cholesky(m)
    alpha = solveCholesky(chol, ys)
  }

  def posterior(x: Double): (Double, Double) = {
    if (alpha == null) return (0.0, 1.0)
    val kx = xs.map(xi => k(x, xi))
    val mean = kx.zip(alpha).map { case (a, b) => a * b }.sum
    val v = solveLower(chol, kx)
    val varPost = math.max(1e-12, 1.0 - v.map(t => t * t).sum)
    (mean, math.sqrt(varPost))
  }

  private def cholesky(a: Array[Array[Double]]): Array[Array[Double]] = {
    val n = a.length
    val l = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- 0 to i) {
      var s = a(i)(j)
      for (t <- 0 until j) s -= l(i)(t) * l(j)(t)
      if (i == j) l(i)(i) = math.sqrt(math.max(1e-12, s))
      else l(i)(j) = s / l(j)(j)
    }
    l
  }

  private def solveLower(l: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    val y = new Array[Double](n)
    for (i <- 0 until n) {
      var s = b(i)
      for (t <- 0 until i) s -= l(i)(t) * y(t)
      y(i) = s / l(i)(i)
    }
    y
  }

  private def solveCholesky(l: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    val y = solveLower(l, b)
    val x = new Array[Double](n)
    for (i <- (n - 1) to 0 by -1) {
      var s = y(i)
      for (t <- i + 1 until n) s -= l(t)(i) * x(t)
      x(i) = s / l(i)(i)
    }
    x
  }
}

class GpSpec extends AnyFunSuite {
  import java.lang.Double.doubleToLongBits

  private def fit(gp: Gp, points: (Int, Double)*): Unit =
    gp.fit(points.map(_._1).toArray, points.map(_._2).toArray, points.size)

  test("posterior interpolates observations (noise-limited)") {
    val gp = new Gp(pMax = 100)
    fit(gp, 10 -> 0.2, 50 -> 1.0, 90 -> 1.8)
    assert(math.abs(gp.mean(50) - 1.0) < 0.05)
    assert(gp.sd(50) < 0.1)
  }

  test("posterior reverts to the pessimistic prior far from data") {
    val gp = new Gp(pMax = 100)
    fit(gp, 90 -> 1.0)
    assert(math.abs(gp.mean(5)) < 0.1) // zero prior mean
    assert(gp.sd(5) > 0.8)             // near-prior uncertainty
  }

  test("no data means (0, 1): maximal pessimism for an LCB user") {
    val gp = new Gp(pMax = 100)
    fit(gp)
    assert(gp.mean(30) == 0.0 && gp.sd(30) == 1.0)
  }

  test("uncertainty shrinks near observations as data accumulates") {
    val gp1 = new Gp(pMax = 100); fit(gp1, 50 -> 1.0)
    val gp2 = new Gp(pMax = 100); fit(gp2, 45 -> 0.95, 50 -> 1.0, 55 -> 1.05)
    assert(gp2.sd(50) <= gp1.sd(50) + 1e-9)
  }

  /** Whether `gp`, last fitted to `ys(i)` at `ps(i)` in that order, matches
    * a fresh reference GP fitted to the same points: the posterior at every
    * p bit for bit, and the safe and probe scans against full scans of the
    * reference for each required rate: `reqs` in units of `yScale`, and for
    * each (p, side) in `ties` the reference's lower (-1), mean (0) or upper
    * (1) capacity bound at p.
    */
  private def matchesReference(gp: Gp, ps: Seq[Int], ys: Seq[Double], yScale: Double, reqs: Seq[Double],
      ties: Seq[(Int, Int)]): Boolean = {
    val pMax = gp.pMax
    val ref = new ReferenceGp()
    ref.fit(ps.map(_.toDouble / pMax).zip(ys))
    def post(p: Int) = ref.posterior(p.toDouble / pMax)
    val tieReqs = ties.map { case (p, side) => val (mu, sd) = post(p); p * (mu + side * sd) * yScale }
    val scans = (reqs.map(_ * yScale) ++ tieReqs).forall { req =>
      val wantSafe = (1 to pMax).find { p => val (mu, sd) = post(p); p * (mu - sd) * yScale >= req }
      val safe = ContTuneSession.safeP(gp, req, yScale)
      safe == wantSafe.getOrElse(0) && (safe == 0 || {
        val wantProbe = (1 until safe).find { p =>
          val (mu, sd) = post(p); p * (mu + sd) * yScale >= req && sd > 0.12
        }
        ContTuneSession.probeP(gp, req, yScale, safe) == wantProbe.getOrElse(0)
      })
    }
    val posteriors = (1 to pMax).forall { p =>
      val (mu, sd) = post(p)
      doubleToLongBits(gp.mean(p)) == doubleToLongBits(mu) && doubleToLongBits(gp.sd(p)) == doubleToLongBits(sd)
    }
    scans && posteriors
  }

  /** Fits `gp` to a history built as ContTune builds it (a map from p to
    * y * yScale, read back in its iteration order and divided by yScale)
    * and checks it against the reference.
    */
  private def agrees(gp: Gp, points: Seq[(Int, Double)], yScale: Double, reqs: Seq[Double],
      ties: Seq[(Int, Int)]): Boolean = {
    val h = scala.collection.mutable.Map.empty[Int, Double]
    points.foreach { case (p, y) => h(p) = y * yScale }
    val (ps, ys) = h.toSeq.map { case (p, y) => (p, y / yScale) }.unzip
    gp.fit(ps.toArray, ys.toArray, ps.size)
    matchesReference(gp, ps, ys, yScale, reqs, ties)
  }

  private val genY = Gen.frequency(20 -> Gen.choose(0.0, 3.0), 1 -> Gen.const(0.0), 1 -> Gen.const(-0.0),
    1 -> Gen.choose(-1.0, 0.0))
  private val genYScale = Gen.oneOf(Gen.const(1.0), Gen.choose(1.0, 5000.0))
  private def genReqs(pMax: Int): Gen[List[Double]] =
    Gen.listOfN(6, Gen.frequency(10 -> Gen.choose(0.0, 2.0 * pMax), 1 -> Gen.const(0.0),
      1 -> Gen.const(Double.NaN)))

  private def check(prop: Prop, what: String): Unit = {
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(result.passed, s"$what: ${org.scalacheck.util.Pretty.pretty(result)}")
  }

  test("grid GP and its safe and probe scans match the reference GP bit for bit") {
    // Histories of 0-30 distinct grid points, inserted into a map in the
    // generated order (so the map's iteration order varies), values around
    // ContTune's O(1) scale with exact zeros of both signs. One grid GP per
    // pMax serves every case, so its buffers and memo are reused across
    // fits of growing and shrinking size.
    def genCase(pMax: Int): Gen[(Seq[(Int, Double)], Double, Seq[Double], Seq[(Int, Int)])] =
      for {
        n      <- Gen.choose(0, 30)
        ps     <- Gen.pick(n, 1 to pMax)
        order  <- Gen.listOfN(n, Gen.choose(0.0, 1.0))
        ys     <- Gen.listOfN(n, genY)
        yScale <- genYScale
        reqs   <- genReqs(pMax)
        ties   <- Gen.listOfN(6, Gen.zip(Gen.choose(1, pMax), Gen.oneOf(-1, 0, 1)))
      } yield (ps.toSeq.zip(order).sortBy(_._2).map(_._1).zip(ys), yScale, reqs, ties)
    // In the fixed cases every product in the mean is a zero of either
    // sign, which pins the sign of an all-zero sum.
    val signedZeros = Seq(Seq(7 -> -0.0), Seq(7 -> -0.0, 20 -> -0.0), Seq(7 -> 0.0, 20 -> -0.0))
    for (pMax <- Seq(40, 100)) {
      val gp = new Gp(pMax)
      signedZeros.foreach(points => assert(agrees(gp, points, 1.0, Seq(0.0, 1.0), Nil), s"pMax=$pMax: $points"))
      check(Prop.forAll(genCase(pMax)) { case (points, yScale, reqs, ties) =>
        agrees(gp, points, yScale, reqs, ties)
      }, s"pMax=$pMax")
    }
  }

  test("a refitted grid GP matches a fresh reference after every kind of refit") {
    // One GP through a sequence of refits, as ContTune refits an operator's
    // surrogate: the same parallelisms in the same order with new values and
    // a new yScale (the fit that keeps the factor and sd memo), the same
    // parallelisms reordered, a history that grows, shrinks or empties, and
    // a rejected fit, which must leave the previous fit in place. Each
    // sequence holds every kind once or more, in a generated order.
    sealed trait Step
    final case class Refit(ps: List[Int], ys: List[Double], yScale: Double, reqs: List[Double]) extends Step
    final case class Reject(ps: List[Int]) extends Step
    val kinds = List("same", "same", "same", "reorder", "reorder", "grow", "grow", "shrink", "empty",
      "reject", "reject")
    // `Gen.pick` keeps its source's order, so orders are drawn here.
    def shuffled[A](xs: List[A]): Gen[List[A]] =
      Gen.listOfN(xs.size, Gen.choose(0.0, 1.0)).map(keys => xs.zip(keys).sortBy(_._2).map(_._1))
    def genSteps(pMax: Int): Gen[List[Step]] = {
      def refit(ps: List[Int]): Gen[Refit] = for {
        ys     <- Gen.listOfN(ps.size, genY)
        yScale <- genYScale
        reqs   <- genReqs(pMax)
      } yield Refit(ps, ys, yScale, reqs)
      def next(kind: String, last: List[Int]): Gen[Step] = kind match {
        case "same"    => refit(last)
        case "reorder" => shuffled(last).flatMap(refit)
        case "grow" =>
          for {
            k     <- Gen.choose(1, math.max(1, 30 - last.size))
            added <- Gen.pick(k, (1 to pMax).filterNot(last.contains))
            ps    <- shuffled(last ++ added)
            step  <- refit(ps)
          } yield step
        case "shrink" => Gen.someOf(last).flatMap(kept => refit(last.filter(kept.toSet)))
        case "empty"  => refit(Nil)
        case "reject" =>
          for {
            bad <- Gen.oneOf(0, -1, pMax + 1)
            at  <- Gen.choose(0, last.size)
          } yield Reject(last.patch(at, List(bad), 0))
      }
      for {
        first <- Gen.choose(1, 20).flatMap(n => Gen.pick(n, 1 to pMax)).flatMap(ps => shuffled(ps.toList))
        start <- refit(first)
        order <- shuffled(kinds)
        steps <- order.foldLeft(Gen.const((first, List[Step](start)))) { (acc, kind) =>
          acc.flatMap { case (last, done) =>
            next(kind, last).map {
              case r: Refit  => (r.ps, r :: done)
              case j: Reject => (last, j :: done)
            }
          }
        }
      } yield steps._2.reverse
    }
    for (pMax <- Seq(40, 100)) {
      check(Prop.forAll(genSteps(pMax)) { steps =>
        val gp = new Gp(pMax)
        var last: Refit = null
        steps.forall {
          case r: Refit =>
            val ys = r.ys.map(_ / r.yScale)
            gp.fit(r.ps.toArray, ys.toArray, r.ps.size)
            last = r
            matchesReference(gp, r.ps, ys, r.yScale, r.reqs, Nil)
          case Reject(ps) =>
            val e = intercept[IllegalArgumentException](gp.fit(ps.toArray, ps.map(_ => 1.0).toArray, ps.size))
            e.getMessage.contains("outside") &&
              matchesReference(gp, last.ps, last.ys.map(_ / last.yScale), last.yScale, last.reqs, Nil)
        }
      }, s"pMax=$pMax")
    }
  }

  test("grid GP rejects parallelism outside 1..pMax") {
    val gp = new Gp(pMax = 40)
    fit(gp, 3 -> 1.0)
    val e = intercept[IllegalArgumentException](fit(gp, 3 -> 2.0, 41 -> 1.0))
    assert(e.getMessage.contains("41"), e.getMessage)
    // The rejected fit leaves the previous one in place.
    val fresh = new Gp(pMax = 40)
    fit(fresh, 3 -> 1.0)
    assert(gp.mean(10) == fresh.mean(10) && gp.sd(10) == fresh.sd(10))
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
      val op = w.dag.ops(w.dag.index(m.id))
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
    assert(req.length == dag.size)
    dag.ops.indices.foreach { i =>
      val id = dag.ops(i).id
      val trueReq = obs.ops(id).offeredRate
      if (trueReq > 0) {
        assert(req(i) > trueReq * 0.5 && req(i) < trueReq * 2.0,
          s"$id req=${req(i)} true=$trueReq")
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

  test("DS2 and ContTune decisions over the full rate pattern are pinned (Timely)") {
    // Timely's jobs (Q3, Q5, Q8; the PQP templates have no Timely rates),
    // on ContTune's pMax 40 grid. Exact figures of the reference run.
    val expected = Seq(
      WorkloadStats("DS2", "Q3", "Q3", "Timely", 120, 249, 2.075, 0, 23.0,
        0.25472633782782655, 0.2673245223206638, 0.2685607609775883),
      WorkloadStats("ContTune", "Q3", "Q3", "Timely", 120, 204, 1.7, 0, 22.0,
        0.2535580797170574, 0.266098484824613, 0.267329053687632),
      WorkloadStats("DS2", "Q5", "Q5", "Timely", 120, 360, 3.0, 0, 48.0,
        0.2554568631564596, 0.2667916372414078, 0.26802055537852404),
      WorkloadStats("ContTune", "Q5", "Q5", "Timely", 120, 243, 2.025, 0, 48.0,
        0.2554568631564596, 0.2667916372414078, 0.26802055537852404),
      WorkloadStats("DS2", "Q8", "Q8", "Timely", 120, 371, 3.091666666666667, 0, 41.0,
        0.2589886412441502, 0.26864995065283326, 0.2692833380867519),
      WorkloadStats("ContTune", "Q8", "Q8", "Timely", 120, 272, 2.2666666666666666, 0, 48.0,
        0.25722300704882123, 0.26681845125900877, 0.26744752062512783),
    )
    val actual = for {
      w <- Seq(Nexmark.q3, Nexmark.q5, Nexmark.q8)
      (name, mk) <- Seq("DS2" -> Evaluation.ds2Factory(SimMode.Timely),
        "ContTune" -> Evaluation.contTuneFactory(SimMode.Timely))
    } yield Evaluation.runOne(w, SimMode.Timely, name, mk)
    assert(actual == expected)
  }
}

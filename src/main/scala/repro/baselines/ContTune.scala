package repro.baselines

import repro.core.TuningSession
import repro.dataflow._
import repro.workloads.Workload

/** Exact Gaussian-process regression over the integer parallelism grid
  * 1..pMax (parallelism p sits at x = p / pMax; processing ability is the
  * target), RBF kernel, zero prior mean. Small-n (<= ~30 observations)
  * direct Cholesky solve (GPML Alg. 2.1).
  *
  * Every x is a grid point, so the kernel comes from one table per pMax,
  * shared read-only by every instance in the JVM, and the posterior mean
  * and sd at each p are computed at most once per fit. The Cholesky factor
  * and the sd depend only on the fitted parallelisms, so a fit at the same
  * parallelisms in the same order as the previous one keeps both and only
  * re-solves for the new targets. The arithmetic, and the order of every
  * sum, is the one of a GP evaluated at arbitrary x.
  */
final class Gp(val pMax: Int) {
  private val kt = Gp.kernelTable(pMax)
  private val stride = pMax + 1

  private var n = 0
  private var ps = new Array[Int](0)
  private var chol = new Array[Double](0) // n x n, row-major, lower triangle
  private var alpha = new Array[Double](0)
  private var v = new Array[Double](0)
  private val meanAt = new Array[Double](stride)
  private val sdAt = new Array[Double](stride)
  private val meanKnown = new Array[Boolean](stride)
  private val sdKnown = new Array[Boolean](stride)

  /** Fits the observations (ps(i), ys(i)) for i < n, in that order; every
    * p must lie in 1..pMax. The arrays are read, not kept. A rejected fit
    * leaves the previous one in place.
    */
  def fit(ps: Array[Int], ys: Array[Double], n: Int): Unit = {
    require(n >= 0 && n <= ps.length && n <= ys.length,
      s"Gp.fit: $n observations in arrays of ${ps.length} and ${ys.length}")
    var i = 0
    while (i < n) {
      val p = ps(i)
      require(p >= 1 && p <= pMax, s"Gp.fit: parallelism $p outside 1..$pMax")
      i += 1
    }
    if (n != this.n || !java.util.Arrays.equals(ps, 0, n, this.ps, 0, n)) {
      if (this.ps.length < n) {
        this.ps = new Array[Int](n); chol = new Array[Double](n * n)
        alpha = new Array[Double](n); v = new Array[Double](n)
      }
      System.arraycopy(ps, 0, this.ps, 0, n)
      this.n = n
      java.util.Arrays.fill(sdKnown, false)
      if (n > 0) cholesky()
    }
    System.arraycopy(ys, 0, alpha, 0, n)
    java.util.Arrays.fill(meanKnown, false)
    if (n > 0) solveCholesky()
  }

  /** Posterior mean at p; 0 with no data. */
  def mean(p: Int): Double = {
    if (!meanKnown(p)) { meanAt(p) = computeMean(p); meanKnown(p) = true }
    meanAt(p)
  }

  /** Posterior sd at p; 1 with no data (maximal pessimism for a
    * lower-confidence-bound user). Always > 0 or NaN.
    */
  def sd(p: Int): Double = {
    if (!sdKnown(p)) { sdAt(p) = computeSd(p); sdKnown(p) = true }
    sdAt(p)
  }

  private def computeMean(p: Int): Double = {
    if (n == 0) return 0.0
    val row = p * stride
    var s = kt(row + ps(0)) * alpha(0)
    var i = 1
    while (i < n) { s += kt(row + ps(i)) * alpha(i); i += 1 }
    s
  }

  private def computeSd(p: Int): Double = {
    if (n == 0) return 1.0
    val row = p * stride
    var i = 0
    while (i < n) { v(i) = kt(row + ps(i)); i += 1 }
    solveLower(v)
    var s = v(0) * v(0)
    i = 1
    while (i < n) { s += v(i) * v(i); i += 1 }
    math.sqrt(math.max(1e-12, 1.0 - s))
  }

  private def cholesky(): Unit = {
    val noiseVar = Gp.noiseSd * Gp.noiseSd
    var i = 0
    while (i < n) {
      var j = 0
      while (j <= i) {
        var s = kt(ps(i) * stride + ps(j)) + (if (i == j) noiseVar else 0.0)
        var t = 0
        while (t < j) { s -= chol(i * n + t) * chol(j * n + t); t += 1 }
        if (i == j) chol(i * n + i) = math.sqrt(math.max(1e-12, s))
        else chol(i * n + j) = s / chol(j * n + j)
        j += 1
      }
      i += 1
    }
  }

  /** Solves L y = b in place (b holds y on return). */
  private def solveLower(b: Array[Double]): Unit = {
    var i = 0
    while (i < n) {
      var s = b(i)
      var t = 0
      while (t < i) { s -= chol(i * n + t) * b(t); t += 1 }
      b(i) = s / chol(i * n + i)
      i += 1
    }
  }

  /** alpha = L^T \ (L \ y), in place over alpha (which holds y on entry). */
  private def solveCholesky(): Unit = {
    solveLower(alpha)
    var i = n - 1
    while (i >= 0) {
      var s = alpha(i)
      var t = i + 1
      while (t < n) { s -= chol(t * n + i) * alpha(t); t += 1 }
      alpha(i) = s / chol(i * n + i)
      i -= 1
    }
  }
}

object Gp {
  val noiseSd = 0.05
  private val lengthScale = 0.15

  private def k(a: Double, b: Double): Double =
    math.exp(-(a - b) * (a - b) / (2 * lengthScale * lengthScale))

  private val tables = new java.util.concurrent.ConcurrentHashMap[Int, Array[Double]]()

  /** k(a / pMax, b / pMax) at index a * (pMax + 1) + b, for a, b in
    * 0..pMax; built once per pMax and never written after.
    */
  private def kernelTable(pMax: Int): Array[Double] =
    tables.computeIfAbsent(pMax, { (m: Int) =>
      val t = new Array[Double]((m + 1) * (m + 1))
      for (a <- 0 to m; b <- 0 to m) t(a * (m + 1) + b) = k(a.toDouble / m, b.toDouble / m)
      t
    })
}

/** ContTune (Lian et al., VLDB'23): conservative Bayesian optimization over
  * the job's *own* tuning history, one surrogate per operator, with the
  * big-small exploration scheme — jump to a safely large parallelism when
  * the surrogate has no safe candidate, then probe downward where the upper
  * confidence bound says a smaller parallelism might suffice.
  *
  * Observations (p, p * measured per-instance rate) persist across rate
  * changes: the job's local history. Recommendation per operator: the
  * smallest p whose lower confidence bound on processing ability covers the
  * (measured-selectivity-propagated) required rate.
  */
final class ContTuneSession(workload: Workload, mode: SimMode)
    extends RateBasedSession(workload, mode) {
  import ContTuneSession._
  override val methodName = "ContTune"

  // Per-operator local history, by position in `dag.ops`: parallelism ->
  // latest measured per-instance processing rate. ContTune's surrogate is
  // over processing ability *per unit of parallelism* — an O(1)-scale,
  // slowly-varying function the RBF GP interpolates well (modeling absolute
  // capacity would span two orders of magnitude and collapse to the prior
  // between observations).
  private val history = Array.fill(dag.size)(scala.collection.mutable.Map.empty[Int, Double])
  private val maxObsPerOp = 30
  // One surrogate per operator, so an operator whose observed parallelisms
  // are unchanged since its last fit keeps its factor and sd memo.
  private val gps = Array.fill(dag.size)(new Gp(pMax))
  // The history handed to a fit, in the map's iteration order.
  private val fitPs = new Array[Int](maxObsPerOp)
  private val fitYs = new Array[Double](maxObsPerOp)

  override protected def observe(obs: RunResult): Unit =
    dag.ops.indices.foreach { i =>
      val op = dag.ops(i)
      if (op.opType != OpType.Source) {
        val m = obs.ops(op.id)
        val h = history(i)
        h(m.parallelism) = m.measuredPerInstanceRate
        if (h.size > maxObsPerOp) h.remove(h.keys.maxBy(p => math.abs(p - m.parallelism)))
      }
    }

  private def recommendOp(i: Int, req: Double, currentP: Int,
      perInstance: Double, allowProbe: Boolean): Int = {
    // Left to right from the first term: the order and bits of the map's
    // `values.sum`.
    var n = 0
    var sum = 0.0
    history(i).foreachEntry { (p, y) =>
      fitPs(n) = p; fitYs(n) = y
      sum = if (n == 0) y else sum + y
      n += 1
    }
    val yScale = math.max(1.0, if (n == 0) perInstance else sum / n)
    var j = 0
    while (j < n) { fitYs(j) /= yScale; j += 1 }
    val gp = gps(i)
    gp.fit(fitPs, fitYs, n)
    val ps = safeP(gp, req, yScale)
    if (ps == 0) {
      // Big step: conservatively above the naive rate-based estimate.
      val naive = math.ceil(1.4 * req / perInstance).toInt
      math.min(pMax, math.max(currentP + 1, math.max(1, naive)))
    } else {
      // Small step: probe below when the UCB is promising and the
      // surrogate is still uncertain there — only while enough of the
      // iteration budget remains to recover from a failed probe.
      val probe = if (allowProbe) probeP(gp, req, yScale, ps) else 0
      if (probe > 0 && probe < ps - 1) probe else ps
    }
  }

  override protected def recommend(rates: Map[String, Double], obs: RunResult, iter: Int): Array[Int] = {
    val req = RateEstimator.requiredRates(dag, rates, obs)
    val allowProbe = iter < TuningSession.maxIter - 2 && !obs.jobBackpressure
    Array.tabulate(dag.size) { i =>
      val op = dag.ops(i)
      if (op.opType == OpType.Source) 1
      else {
        val m = obs.ops(op.id)
        recommendOp(i, req(i), m.parallelism, m.measuredPerInstanceRate, allowProbe)
      }
    }
  }

  // Settles only on an exact fixed point (the big-small loop redeploys
  // whenever its recommendation changes), like Algorithm 2's test.
  override protected def settled(rec: Array[Int], par: Array[Int]): Boolean =
    java.util.Arrays.equals(rec, par)
}

object ContTuneSession {
  private val beta = 1.0 // confidence-bound width, in posterior sds

  /** The smallest p whose lower confidence bound on capacity,
    * p * (mean - beta * sd) * yScale, covers `req`; 0 if none. The mean is
    * tested first, so the O(n^2) sd is paid only where the mean passes:
    * sd > 0, so the bound never exceeds the mean's capacity under rounding,
    * and a NaN fails both `>=` tests.
    */
  private[baselines] def safeP(gp: Gp, req: Double, yScale: Double): Int = {
    var p = 1
    while (p <= gp.pMax) {
      if (p * gp.mean(p) * yScale >= req && p * (gp.mean(p) - beta * gp.sd(p)) * yScale >= req) return p
      p += 1
    }
    0
  }

  /** The smallest p below `ps` whose upper confidence bound covers `req`
    * while the surrogate is still uncertain there; 0 if none.
    */
  private[baselines] def probeP(gp: Gp, req: Double, yScale: Double, ps: Int): Int = {
    var p = 1
    while (p < ps) {
      val sd = gp.sd(p)
      if (p * (gp.mean(p) + beta * sd) * yScale >= req && sd > 0.12) return p
      p += 1
    }
    0
  }
}

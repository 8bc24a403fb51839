package repro.dataflow

/** Deterministic 64-bit mix hash → doubles in [-1, 1] or [0, 1). Used for
  * every "random" quantity in the substrate so runs are reproducible in
  * (seed, dag, operator, parallelism).
  */
object DetRandom {
  private val start = 0x9E3779B97F4A7C15L

  /** Folds one part's hash code into the running hash `h`. */
  private def step(h: Long, part: Int): Long = {
    var x = part.toLong * 0xBF58476D1CE4E5B9L
    x ^= (x >>> 27)
    val g = (h ^ x) * 0x94D049BB133111EBL
    g ^ (g >>> 31)
  }

  def mix(parts: Any*): Long = {
    var h = start
    parts.foreach(p => h = step(h, p.hashCode))
    h
  }

  private def toUnit(h: Long): Double = (h >>> 11).toDouble / (1L << 53).toDouble

  /** Uniform in [0, 1). */
  def unit(parts: Any*): Double = toUnit(mix(parts: _*))

  /** Uniform in [-1, 1]. */
  def signed(parts: Any*): Double = unit(parts: _*) * 2.0 - 1.0

  /** `unit(seed, dag, op, p, epoch, tag)` without boxing: the same hash codes
    * folded in the same order. The measurement draws of `Simulator.run`.
    */
  def unit(seed: Long, dag: String, op: String, p: Int, epoch: Long, tag: String): Double =
    toUnit(suffix(step(prefix(seed, dag, op), p), epoch, tag))

  /** `signed(seed, dag, op, epoch, tag)` without boxing. */
  def signed(seed: Long, dag: String, op: String, epoch: Long, tag: String): Double =
    toUnit(suffix(prefix(seed, dag, op), epoch, tag)) * 2.0 - 1.0

  private def prefix(seed: Long, dag: String, op: String): Long =
    step(step(step(start, java.lang.Long.hashCode(seed)), dag.hashCode), op.hashCode)

  private def suffix(h: Long, epoch: Long, tag: String): Long =
    step(step(h, java.lang.Long.hashCode(epoch)), tag.hashCode)
}

/** Execution substrate mode: which real system the simulator stands in for.
  *
  * - [[SimMode.Flink]]: JVM-level per-core rates; the useful-time measurement
  *   channel has small, operator-complexity-dependent relative error
  *   (backpressure metrics are first-class, §V-B).
  * - [[SimMode.Timely]]: native per-core rates (scaled up by
  *   [[SimConstants.timelySpeedup]]); useful-time measurements are *biased
  *   low* because non-blocking, continuously-spinning operators inflate
  *   busy time (§V-B "Timely operators are non-blocking and continuously
  *   spinning") — this is why rate-based tuners overprovision there (§V-F).
  */
sealed trait SimMode
object SimMode {
  case object Flink  extends SimMode
  case object Timely extends SimMode
}

/** Tunable constants of the substrate. Centralised so the benches and the
  * calibration notes in EXPERIMENTS.md reference one place.
  */
object SimConstants {
  /** Parallelism-efficiency decay per extra instance: stateless operators
    * scale almost linearly; stateful ones (joins/windows) pay coordination
    * cost. eff(p) = 1 / (1 + slope * (p - 1)); PA(p) = rate * p * eff(p).
    * This makes PA strictly increasing but sub-linear in p — the monotone
    * behaviour of the paper's Fig. 4 — and is what breaks DS2's linearity
    * assumption on stateful operators.
    */
  val statelessEffSlope = 0.0005
  val statefulEffSlope  = 0.006

  /** Relative useful-time measurement error per operator type (Flink mode).
    * Stateless operators are easy to measure; stateful ones are not (§V-C:
    * "accurately measuring useful time ... is intricate").
    */
  def measureEps(t: OpType): Double = t match {
    case OpType.IncJoin    => 0.04
    case OpType.WindowJoin => 0.04
    case OpType.WindowAgg  => 0.03
    case OpType.Agg        => 0.025
    case _                 => 0.01
  }

  /** Useful-time samples are sparse on low-rate streams (few records per
    * measurement interval), so relative error grows as the offered rate
    * drops below ~50K records/s — this is what bites on the PQP queries,
    * whose Table II units are intentionally tiny.
    */
  def lowRateFactor(offeredRate: Double): Double =
    1.0 + 2.5 * math.max(0.0, math.log10(50e3 / math.max(1.0, offeredRate)))

  /** Native (Rust) vs JVM per-core speed ratio for Timely mode. */
  val timelySpeedup = 500.0

  /** Mean multiplicative bias of useful-time measurements in Timely mode
    * (spinning inflates busy time ⇒ measured per-instance rate is ~4-6x
    * lower than true).
    */
  val timelyBiasLo = 0.15
  val timelyBiasHi = 0.30

  /** CPU-utilization threshold T of Algorithm 1 (paper example: 60%). */
  val cpuThreshold = 0.60

  /** Flink bottleneck rule: backpressured time > 10% of busy+idle+bp. */
  val flinkBackpressureShare = 0.10

  /** Physical maximum parallelism per operator (Flink: 50 TaskManagers x 2
    * slots, §V-A).
    */
  val maxParallelismFlink  = 100
  val maxParallelismTimely = 40
}

/** Per-operator metrics of one simulated deployment.
  *
  * "Measured" fields are what the rate-based tuners (DS2, ContTune) may
  * observe — they include the mode's measurement error. "True" fields are
  * substrate-internal ground truth used only by the simulator itself, the
  * bottleneck labeler (which in the real systems reads exact backpressure
  * flags and CPU gauges) and tests.
  */
final case class OpMetrics(
    id: String,
    parallelism: Int,
    offeredRate: Double,            // records/s arriving (capped by upstream PA)
    processingAbility: Double,      // true PA at this parallelism
    utilization: Double,            // busy fraction = min(1, offered / PA)
    overloaded: Boolean,            // offered > PA: this operator is a true bottleneck
    backpressured: Boolean,         // some downstream operator is overloaded
    outputRate: Double,             // min(offered, PA) * selectivity
    measuredPerInstanceRate: Double,// useful-time-derived rate per instance (noisy)
    measuredSelectivity: Double,    // observed out/in ratio (noisy)
)

/** Result of one simulated deployment of a DAG at given source rates and
  * parallelism assignment.
  */
final case class RunResult(
    dag: Dag,
    sourceRates: Map[String, Double],
    parallelisms: Map[String, Int],
    ops: Map[String, OpMetrics],
    jobBackpressure: Boolean,
) {
  def totalParallelism: Int = parallelisms.values.sum
  def metricsInTopoOrder: Vector[OpMetrics] = dag.topo.iterator.map(i => ops(dag.ops(i).id)).toVector
}

/** Rate-propagation simulator of dataflow execution with backpressure.
  *
  * Substitutes for the paper's Flink/Timely testbeds (see DESIGN.md). The
  * model: each operator has processing ability PA(op, p); offered rates
  * propagate in topological order through operator selectivities, with each
  * operator's output capped at its PA (an overloaded operator cannot emit
  * faster than it processes). An operator is *overloaded* when its offered
  * rate exceeds its PA; backpressure cascades to every upstream operator
  * (the cascading effect of §II-A); job-level backpressure holds iff any
  * operator is overloaded.
  */
object Simulator {

  /** Deterministic cost multiplier derived from *observable* static features
    * (Table I), so a learned model can in principle recover it: wider tuples
    * and longer windows cost more per record.
    */
  def costScale(op: Operator): Double = {
    val width  = math.sqrt(op.tupleWidthIn.toDouble / 8.0)
    val window = op.window.map(w => 1.0 + 0.15 * math.log1p(w.length)).getOrElse(1.0)
    width * window
  }

  /** True per-instance processing rate at parallelism 1 (records/s). */
  def perCoreRate(op: Operator, mode: SimMode): Double = {
    val base = op.opType.baseRate / costScale(op)
    mode match {
      case SimMode.Flink  => base
      case SimMode.Timely => base * SimConstants.timelySpeedup
    }
  }

  /** Parallelism efficiency: strictly decreasing in p, so PA is strictly
    * increasing but sub-linear.
    */
  def eff(op: Operator, p: Int): Double = {
    val slope =
      if (op.opType.stateful) SimConstants.statefulEffSlope else SimConstants.statelessEffSlope
    1.0 / (1.0 + slope * (p - 1))
  }

  /** True processing ability PA(op, p): records/s the operator can sustain. */
  def processingAbility(op: Operator, p: Int, mode: SimMode): Double =
    perCoreRate(op, mode) * p * eff(op, p)

  /** Minimum parallelism making `op` sustain `requiredRate` — ground truth,
    * used by tests and to compute the optimum a tuner should find.
    */
  def optimalParallelism(op: Operator, requiredRate: Double, mode: SimMode, maxP: Int): Int = {
    var p = 1
    while (p < maxP && processingAbility(op, p, mode) < requiredRate) p += 1
    p
  }

  /** Deterministic measurement bias for the useful-time channel at operating
    * point (dag, op, p, epoch). Depends on p (measuring at a different
    * parallelism re-samples the error) and on a caller-supplied measurement
    * epoch (each tuning process re-measures over a fresh interval).
    */
  def measurementBias(dagName: String, op: Operator, p: Int, mode: SimMode, seed: Long,
      epoch: Long, epsScale: Double = 1.0): Double =
    mode match {
      case SimMode.Flink =>
        // Asymmetric: useful-time accounting inflates busy time (framework
        // overhead books as processing), so capacity is mostly *under*-
        // measured — rate-based tuners then overprovision a little — with a
        // small chance of overestimation (the rare backpressure incidents
        // of Table III). u in [-0.25, 1]: bias in [1 - 1.6eps, 1 + 0.4eps].
        val u = DetRandom.unit(seed, dagName, op.id, p, epoch, "m") * 1.25 - 0.25
        1.0 - 1.6 * SimConstants.measureEps(op.opType) * epsScale * u
      case SimMode.Timely =>
        val u = DetRandom.unit(seed, dagName, op.id, p, epoch, "m")
        SimConstants.timelyBiasLo + u * (SimConstants.timelyBiasHi - SimConstants.timelyBiasLo)
    }

  /** Deterministic selectivity-observation bias for (dag, op, epoch). */
  def selectivityBias(dagName: String, op: Operator, seed: Long, epoch: Long,
      epsScale: Double = 1.0): Double =
    1.0 + SimConstants.measureEps(op.opType) * epsScale *
      DetRandom.signed(seed, dagName, op.id, epoch, "s")

  private val noiseSeed = 7L // seed of every run's measurement noise

  /** Simulate one deployment.
    *
    * @param sourceRates records/s per source operator id
    * @param parallelisms parallelism degree per operator id (all ops)
    */
  def run(
      dag: Dag,
      sourceRates: Map[String, Double],
      parallelisms: Map[String, Int],
      mode: SimMode,
      noiseEpoch: Long = 0,
  ): RunResult = {
    require(dag.sources.forall(s => sourceRates.contains(s.id)),
      s"${dag.name}: missing source rate for some source")
    require(dag.ops.forall(o => parallelisms.getOrElse(o.id, 0) >= 1),
      s"${dag.name}: every operator needs parallelism >= 1")

    val n          = dag.size
    val offered    = new Array[Double](n)
    val output     = new Array[Double](n)
    val ability    = new Array[Double](n)
    val overloaded = new Array[Boolean](n)

    dag.topo.foreach { i =>
      val op = dag.ops(i)
      val in =
        if (dag.upstream(i).isEmpty) sourceRates(op.id)
        else dag.upstream(i).map(output).sum
      val pa = processingAbility(op, parallelisms(op.id), mode)
      offered(i)    = in
      ability(i)    = pa
      overloaded(i) = in > pa * (1.0 + 1e-9)
      output(i)     = math.min(in, pa) * op.selectivity
    }

    // Backpressured iff some descendant is overloaded: in reverse
    // topological order every downstream operator is already decided.
    val backpressured = new Array[Boolean](n)
    dag.topo.reverseIterator.foreach { i =>
      backpressured(i) = dag.downstream(i).exists(d => overloaded(d) || backpressured(d))
    }

    val jobBp = overloaded.contains(true)
    val metrics = dag.ops.indices.map { i =>
      val op   = dag.ops(i)
      val p    = parallelisms(op.id)
      val pa   = ability(i)
      val util = math.min(1.0, offered(i) / pa)
      val truePerInstance = pa / p
      // At a saturated operator the observed throughput per instance IS the
      // capacity (busy fraction = 1), so rate-based tuners measure it
      // exactly there — this is what closes DS2's feedback loop. Below
      // saturation the useful-time normalization carries the mode's error.
      val measured =
        if (overloaded(i)) truePerInstance
        else truePerInstance * measurementBias(dag.name, op, p, mode, noiseSeed, noiseEpoch,
          SimConstants.lowRateFactor(offered(i)))
      op.id -> OpMetrics(
        id = op.id,
        parallelism = p,
        offeredRate = offered(i),
        processingAbility = pa,
        utilization = util,
        overloaded = overloaded(i),
        backpressured = backpressured(i),
        outputRate = output(i),
        measuredPerInstanceRate = measured,
        // Selectivity is observed by record counting — inherently more
        // accurate than time accounting — so it carries half the error.
        measuredSelectivity =
          op.selectivity * selectivityBias(dag.name, op, noiseSeed, noiseEpoch,
            0.5 * SimConstants.lowRateFactor(offered(i))),
      )
    }.toMap

    RunResult(dag, sourceRates, parallelisms, metrics, jobBp)
  }

  private val latencyEpochs = 100
  private val latencySeed   = 11L

  /** Per-epoch processing latencies (seconds) for a deployment — the Timely
    * per-epoch latency of §V-F. A backpressure-free job has latency governed
    * by mild queueing on its hottest operator; an overloaded job accumulates
    * backlog, so latency grows with the epoch index.
    */
  def epochLatencies(result: RunResult): Vector[Double] = {
    val base    = 0.25 // seconds per epoch of data at zero load
    val maxUtil = result.metricsInTopoOrder.map(_.utilization).max
    (1 to latencyEpochs).toVector.map { e =>
      val jitter = 1.0 + 0.05 * DetRandom.signed(latencySeed, result.dag.name, e)
      if (result.jobBackpressure) base * (1.0 + 0.5 * e) * jitter
      else base * (1.0 + 0.35 * maxUtil * maxUtil) * jitter
    }
  }
}

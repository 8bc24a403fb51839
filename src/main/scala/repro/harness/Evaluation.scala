package repro.harness

import repro.baselines._
import repro.core._
import repro.dataflow._
import repro.workloads.{SourceRates, Workload, Workloads}

/** Aggregated outcome of one (method, workload) evaluation over the full
  * 120-change periodic source-rate pattern.
  */
final case class WorkloadStats(
    method: String,
    workloadKey: String,
    group: String,
    mode: String,
    processes: Int,
    totalReconfigurations: Int,
    avgReconfigurations: Double,
    backpressureOccurrences: Int,
    parallelismAt10Wu: Double,
    latencyP50At10Wu: Double,
    latencyP95At10Wu: Double,
    latencyP99At10Wu: Double,
)

/** Drives tuning sessions through the §V-A evaluation protocol and
  * aggregates the quantities the paper's tables and headline figures
  * report: backpressure occurrences (Table III), average reconfigurations
  * (Fig. 7a), total parallelism at 10·Wu (Fig. 6 / 8a) and per-epoch
  * latency percentiles (Fig. 8b-d).
  */
object Evaluation {

  def percentile(xs: Vector[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val sorted = xs.sorted
      sorted(math.min(sorted.size - 1, math.max(0, (q * sorted.size).toInt)))
    }

  /** Run one session through the full periodic pattern. */
  def runOne(
      w: Workload,
      mode: SimMode,
      methodName: String,
      mkSession: Workload => TuningSession,
      patternSeed: Long = 2025,
  ): WorkloadStats = {
    val session = mkSession(w)
    val pattern = SourceRates.pattern(w.key, patternSeed)
    var par = TuningSession.initialConfig(w)
    var totalRe = 0
    var bp = 0
    val parAt10 = Vector.newBuilder[Int]
    var lastAt10: RunResult = null
    pattern.foreach { m =>
      val res = session.tuneProcess(m.toDouble, par)
      par = res.parallelisms
      totalRe += res.reconfigurations
      bp += res.backpressureAtEnd
      if (m == 10) {
        parAt10 += res.finalRun.totalParallelism
        lastAt10 = res.finalRun
      }
    }
    val p10 = parAt10.result()
    val lat =
      if (lastAt10 == null) Vector(0.0)
      else Simulator.epochLatencies(lastAt10)
    WorkloadStats(
      method = methodName,
      workloadKey = w.key,
      group = w.group,
      mode = mode.toString,
      processes = pattern.size,
      totalReconfigurations = totalRe,
      avgReconfigurations = totalRe.toDouble / pattern.size,
      backpressureOccurrences = bp,
      // The settled recommendation: the paper's Fig. 6 reports the final
      // parallelism "after several reconfigurations" at 10Wu — i.e. the
      // last visit's configuration, not the average over cold starts.
      parallelismAt10Wu = p10.lastOption.map(_.toDouble).getOrElse(0.0),
      latencyP50At10Wu = percentile(lat, 0.50),
      latencyP95At10Wu = percentile(lat, 0.95),
      latencyP99At10Wu = percentile(lat, 0.99),
    )
  }

  /** Evaluate a set of (method name, session factory) pairs over workloads,
    * in parallel across (method, workload) pairs: `threads` workers of the
    * shared [[Workers]] pool pull the pairs in order. Deterministic: every
    * session is independently seeded.
    */
  def evaluate(
      workloads: Seq[Workload],
      mode: SimMode,
      methods: Seq[(String, Workload => TuningSession)],
      threads: Int = math.max(2, Runtime.getRuntime.availableProcessors() - 2),
      patternSeed: Long = 2025,
  ): Vector[WorkloadStats] = {
    val tasks = for (w <- workloads.toVector; (name, mk) <- methods) yield (w, name, mk)
    Workers.map(tasks, threads) { case (w, name, mk) => runOne(w, mode, name, mk, patternSeed) }
  }

  /** Group-level aggregation matching the paper's table rows: Nexmark
    * queries stand alone; PQP rows aggregate their template's queries
    * (mean reconfigurations/parallelism, summed backpressure counts).
    */
  final case class GroupRow(
      method: String, group: String, avgReconfigurations: Double,
      backpressureOccurrences: Int, parallelismAt10Wu: Double,
  )

  def byGroup(stats: Seq[WorkloadStats]): Vector[GroupRow] =
    stats.groupBy(s => (s.method, s.group)).map { case ((m, g), ss) =>
      GroupRow(
        method = m,
        group = g,
        avgReconfigurations = ss.map(_.avgReconfigurations).sum / ss.size,
        backpressureOccurrences = ss.map(_.backpressureOccurrences).sum,
        parallelismAt10Wu = ss.map(_.parallelismAt10Wu).sum / ss.size,
      )
    }.toVector.sortBy(r => (Workloads.groups.indexOf(r.group), r.method))

  // --- Standard method factories --------------------------------------

  def ds2Factory(mode: SimMode): Workload => TuningSession =
    w => new Ds2Session(w, mode)

  def contTuneFactory(mode: SimMode): Workload => TuningSession =
    w => new ContTuneSession(w, mode)

  def streamTuneFactory(
      pretrained: Pretrained,
      model: Int => FineTuneModel,
  ): Workload => TuningSession =
    w => new StreamTuneSession(pretrained, w, model(pretrained.clusters.head.encoder.hidden))

  def zeroTuneFactory(encoder: GnnEncoder, mode: SimMode): Workload => TuningSession =
    w => new ZeroTuneSession(encoder, w, mode)

  def svmModel: Int => FineTuneModel = dim => new MonotonicSvm(dim)
  def gbtModel: Int => FineTuneModel = dim => new MonotonicGbt(dim)
  def nnModel: Int => FineTuneModel  = dim => new PlainNn(dim)
}

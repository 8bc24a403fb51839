package repro.core

import repro.dataflow._
import repro.workloads.Workload
import scala.collection.mutable.ArrayBuffer

/** Result of one tuning process (the reaction to one source-rate change):
  * the settled parallelism assignment, how many reconfigurations were
  * performed, and the settled deployment's metrics.
  *
  * `backpressureAtEnd` is 1 when the process *ended* in a backpressured
  * state — the sustained, Table-III-counted kind of occurrence (transient
  * intermediate states within the 10-minute stabilization window are one
  * episode, per §V-A's reconfiguration mechanism).
  */
final case class ProcessResult(
    parallelisms: Map[String, Int],
    reconfigurations: Int,
    backpressureAtEnd: Int,
    finalRun: RunResult,
)

/** A stateful per-job tuning session: invoked once per source-rate change,
  * carrying whatever the method accumulates across changes (GP history for
  * ContTune, the fine-tuning dataset T for StreamTune, nothing for DS2).
  */
trait TuningSession {
  def methodName: String
  def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult
}

object TuningSession {
  def maxParallelism(mode: SimMode): Int = mode match {
    case SimMode.Flink  => SimConstants.maxParallelismFlink
    case SimMode.Timely => SimConstants.maxParallelismTimely
  }

  /** All-ones starting configuration. */
  def initialConfig(w: Workload): Map[String, Int] = w.dag.ops.map(_.id -> 1).toMap

  /** Tuning-iteration budget per rate change: with the paper's 10-minute
    * stabilization wait between reconfigurations, only a handful of
    * adjustments fit before the workload moves on.
    */
  val maxIter = 4
}

/** StreamTune's online fine-tuning phase (Algorithm 2).
  *
  * On construction: assign the job's DAG to its nearest cluster (line 1),
  * retrieve the frozen encoder (line 2) and construct the warm-up dataset T
  * (line 3). Each process: embed the DAG at the announced source rates
  * (parallelism-agnostic vectors, line 7), fit the monotonic model M_f to T
  * (line 5), recommend the minimum safe parallelism per operator in
  * topological order via binary search (line 8), redeploy and collect
  * Algorithm-1 labels as new training rows (lines 10-11), and iterate until
  * no backpressure and a recommendation fixed point (line 12).
  *
  * Efficiency note (documented in DESIGN.md): M_f is refit eagerly whenever
  * feedback contains a positive (bottleneck) label — the case where the
  * model was wrong — and on a light periodic cadence otherwise, rather than
  * unconditionally on every iteration; with exclusively-negative feedback a
  * refit is a no-op on the decision boundary but not on the CPU budget.
  */
final class StreamTuneSession(
    pretrained: Pretrained,
    workload: Workload,
    val model: FineTuneModel,
) extends TuningSession {
  override val methodName = s"StreamTune(${model.name})"

  private val refitEvery = 10   // processes between periodic refits
  private val fitCap     = 9000 // most rows M_f is fitted on
  private val mode = pretrained.mode
  private val pMax = TuningSession.maxParallelism(mode)
  val cluster: ClusterModel = pretrained.assign(workload.dag)
  private val tData = ArrayBuffer[TrainRow]()
  tData ++= cluster.defaultWarmUpRows
  model.fit(fitRows)
  private var pendingPositives = false
  private var processes = 0

  // Feedback-derived bounds, valid only under the monotonic assumption an
  // operator observed overloaded at p is a bottleneck at every p' <= p, and
  // one that sustained its full offered rate at p is safe at every p' >= p.
  // Keyed by (operator, rate multiplier): the job's own tuning history,
  // exactly the information Algorithm 2 accumulates in T, applied as hard
  // constraints on the search. The non-monotonic NN ablation cannot license
  // these inferences and runs without them (which is the Fig. 11a contrast).
  private val floorMem = scala.collection.mutable.Map.empty[(String, Double), Int]
  private val safeMem  = scala.collection.mutable.Map.empty[(String, Double), Int]

  // Operator embeddings per rate multiplier. The encoder is frozen, so they
  // depend on the multiplier alone; reusing the same arrays also lets M_f's
  // per-embedding cache hit across processes until its next refit.
  private val embeddings = scala.collection.mutable.Map.empty[Double, Map[String, Array[Double]]]

  private def fitRows: IndexedSeq[TrainRow] =
    if (tData.size <= fitCap) tData.toIndexedSeq
    else {
      val recent = tData.takeRight(fitCap * 3 / 4)
      val earlierPos = tData.dropRight(fitCap * 3 / 4).filter(_.label == 1).takeRight(fitCap / 4)
      (earlierPos ++ recent).toIndexedSeq
    }

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    val dag   = workload.dag
    val rates = workload.rates(multiplier, mode)
    val embOf = embeddings.getOrElseUpdate(multiplier, {
      val emb = cluster.encoder.embed(Pretrain.agnosticSample(dag, rates))
      dag.ops.map(_.id).zipWithIndex.map { case (id, i) => id -> emb(i) }.toMap
    })

    processes += 1
    if (pendingPositives || processes % refitEvery == 0) {
      model.fit(fitRows)
      pendingPositives = false
    }

    var par = current
    var reconfigs = 0
    var prevRec: Map[String, Int] = null
    var lastRun: RunResult = null
    var iter = 0
    var converged = false
    while (!converged && iter < TuningSession.maxIter) {
      // Line 6-8: recommend minimum safe parallelism per operator in the
      // DAG's topological order. The model's binary-search answer is
      // reconciled with the feedback bracket [floor, safe]: inside the
      // bracket the model is trusted; outside it the search bisects the
      // bracket (sound under monotonicity — the paper's own observation
      // that the minimum-parallelism search is a binary search). A
      // first-contact recommendation (no bracket yet) carries a small
      // deployment headroom, the usual SLO buffer for an unverified
      // prediction.
      val rec = dag.topoOrder.map { id =>
        val op = dag.byId(id)
        val p =
          if (op.opType == OpType.Source) 1
          else {
            val base = FineTuneModel.minSafeParallelism(model, embOf(id), pMax)
            if (!model.monotonic) base
            else {
              val key      = (id, multiplier)
              val safeOpt  = safeMem.get(key)
              val floorOpt = floorMem.get(key)
              val safe     = safeOpt.getOrElse(pMax)
              val floor    = math.min(safe, floorOpt.getOrElse(1))
              if (safeOpt.isEmpty && floorOpt.isEmpty)
                math.min(pMax, base + math.max(1, math.ceil(0.08 * base).toInt))
              else if (base > safe) safe
              else if (base >= floor) base
              else math.max(floor, (floor + safe) / 2)
            }
          }
        id -> p
      }.toMap
      if (prevRec != null && rec == prevRec && lastRun != null && !lastRun.jobBackpressure) {
        converged = true
      } else {
        if (rec != par) { par = rec; reconfigs += 1 }
        val run = Simulator.run(dag, rates, par, mode)
        // Lines 10-11: collect feedback labels into T, and fold the same
        // feedback into the monotonicity bounds.
        val labels = Labeler.label(run)
        dag.ops.foreach { op =>
          val l = labels(op.id)
          if (l >= 0) {
            tData += TrainRow(embOf(op.id), par(op.id), l)
            if (l == 1) pendingPositives = true
          }
          val m = run.ops(op.id)
          if (m.overloaded) {
            val key = (op.id, multiplier)
            floorMem(key) =
              math.max(floorMem.getOrElse(key, 1), math.min(pMax, par(op.id) + 1))
          }
          if (!run.jobBackpressure) {
            val key = (op.id, multiplier)
            safeMem(key) = math.min(safeMem.getOrElse(key, pMax), par(op.id))
          }
        }
        if (pendingPositives) { model.fit(fitRows); pendingPositives = false }
        lastRun = run
        prevRec = rec
      }
      iter += 1
    }
    if (lastRun == null) lastRun = Simulator.run(dag, rates, par, mode)

    // Rescue deployment: if the iteration budget ran out mid-recovery (deep
    // DAGs reveal bottlenecks one frontier at a time), fall back to the
    // composition of known-safe parallelisms — sound under monotonicity
    // (each was observed sustaining its full offered rate at this rate
    // level), hence gated on a monotonic model like the other bounds.
    if (model.monotonic && lastRun.jobBackpressure) {
      val rescue = dag.ops.map { op =>
        op.id -> (
          if (op.opType == OpType.Source) 1
          else safeMem.getOrElse((op.id, multiplier), pMax))
      }.toMap
      if (rescue != par) { par = rescue; reconfigs += 1 }
      val run = Simulator.run(dag, rates, par, mode)
      dag.ops.foreach { op =>
        if (!run.jobBackpressure) {
          val key = (op.id, multiplier)
          safeMem(key) = math.min(safeMem.getOrElse(key, pMax), par(op.id))
        }
      }
      lastRun = run
    }
    ProcessResult(par, reconfigs, if (lastRun.jobBackpressure) 1 else 0, lastRun)
  }
}

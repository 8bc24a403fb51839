package repro.core

import repro.dataflow._
import repro.workloads.Workload
import scala.collection.immutable.ArraySeq
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
  *
  * The guard `bracket` and the rescue deploy are additions to the paper
  * (DESIGN.md "Deviations").
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
  private val dag  = workload.dag
  val cluster: ClusterModel = pretrained.assign(dag)
  private val tData = ArrayBuffer[TrainRow]()
  tData ++= cluster.defaultWarmUpRows
  model.fit(fitRows)
  private var processes = 0

  /** What the session knows at one rate multiplier, by position in
    * `dag.ops`. The encoder is frozen, so the embeddings depend on the
    * multiplier alone; reusing the same arrays (also in T's feedback rows)
    * lets M_f's identity-keyed records hit across processes and refits.
    * The feedback bounds (0 = none yet) hold under the monotonic assumption:
    * overloaded at p means a bottleneck at every p' <= p (`floor` is the
    * least p not refuted), ran clean at p means safe at every p' >= p.
    * The non-monotonic NN cannot license them (the Fig. 11a contrast).
    */
  private final class RateState(val emb: Array[Array[Double]]) {
    val floor = new Array[Int](emb.length)
    val safe  = new Array[Int](emb.length)
    /** Operator `i`'s safe bound, pMax if there is none yet. */
    def safeOrMax(i: Int): Int = if (safe(i) == 0) pMax else safe(i)
  }
  private val states = scala.collection.mutable.Map.empty[Double, RateState]

  /** T as M_f sees it: at most `fitCap` rows, the most recent plus earlier
    * positives, in an array-backed sequence.
    */
  private def fitRows: IndexedSeq[TrainRow] =
    if (tData.size <= fitCap) ArraySeq.unsafeWrapArray(tData.toArray)
    else {
      val recent = tData.takeRight(fitCap * 3 / 4)
      val earlierPos = tData.dropRight(fitCap * 3 / 4).filter(_.label == 1).takeRight(fitCap / 4)
      ArraySeq.unsafeWrapArray((earlierPos ++ recent).toArray)
    }

  /** The guard on operator `i`'s model answer `base`. Before any feedback at
    * this rate, the first-contact recommendation carries a small headroom,
    * the usual SLO buffer for an unverified prediction. Otherwise the answer
    * is reconciled with the bracket [floor, safe]: capped at safe, trusted
    * inside, and below floor the bracket is bisected (sound under
    * monotonicity: the minimum-parallelism search is a binary search).
    */
  private def bracket(st: RateState, i: Int, base: Int): Int =
    if (st.floor(i) == 0 && st.safe(i) == 0)
      math.min(pMax, base + math.max(1, math.ceil(0.08 * base).toInt))
    else {
      val safe  = st.safeOrMax(i)
      val floor = math.min(safe, math.max(1, st.floor(i)))
      if (base > safe) safe
      else if (base >= floor) base
      else math.max(floor, (floor + safe) / 2)
    }

  /** A run free of backpressure sustained every operator's offered rate:
    * each deployed p becomes a safe bound.
    */
  private def foldSafe(st: RateState, par: Map[String, Int]): Unit =
    dag.ops.indices.foreach { i =>
      st.safe(i) = math.min(st.safeOrMax(i), par(dag.ops(i).id))
    }

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    val rates = workload.rates(multiplier, mode)
    val st = states.getOrElseUpdate(multiplier,
      new RateState(cluster.encoder.embed(Pretrain.agnosticSample(dag, rates))))

    processes += 1
    if (processes % refitEvery == 0) model.fit(fitRows) // line 5

    var par = current
    var reconfigs = 0
    var prevRec: Map[String, Int] = null
    var run: RunResult = null
    var iter = 0
    var converged = false
    while (!converged && iter < TuningSession.maxIter) {
      // Lines 6-8: the minimum safe parallelism per operator, in the DAG's
      // topological order.
      val rec = dag.topo.map { i =>
        val op = dag.ops(i)
        val p =
          if (op.opType == OpType.Source) 1
          else {
            val base = FineTuneModel.minSafeParallelism(model, st.emb(i), pMax)
            if (model.monotonic) bracket(st, i, base) else base
          }
        op.id -> p
      }.toMap
      // Line 12; the first iteration always deploys.
      if (rec == prevRec && !run.jobBackpressure) converged = true
      else {
        if (rec != par) { par = rec; reconfigs += 1 }
        run = Simulator.run(dag, rates, par, mode)
        // Lines 10-11: collect feedback labels into T, and fold the same
        // feedback into the bounds. A positive label means M_f was wrong:
        // refit now.
        val labels = Labeler.label(run)
        var positives = false
        dag.ops.indices.foreach { i =>
          val op = dag.ops(i)
          val l = labels(op.id)
          if (l >= 0) {
            tData += TrainRow(st.emb(i), par(op.id), l)
            if (l == 1) positives = true
          }
          if (run.ops(op.id).overloaded)
            st.floor(i) = math.max(st.floor(i), math.min(pMax, par(op.id) + 1))
        }
        if (!run.jobBackpressure) foldSafe(st, par)
        if (positives) model.fit(fitRows)
        prevRec = rec
      }
      iter += 1
    }

    // Rescue deployment: if the iteration budget ran out mid-recovery (deep
    // DAGs reveal bottlenecks one frontier at a time), fall back to the
    // composition of known-safe parallelisms — sound under monotonicity
    // (each was observed sustaining its full offered rate at this rate
    // level), hence gated on a monotonic model like the other bounds.
    if (model.monotonic && run.jobBackpressure) {
      val rescue = dag.ops.indices.map { i =>
        val op = dag.ops(i)
        op.id -> (if (op.opType == OpType.Source) 1 else st.safeOrMax(i))
      }.toMap
      if (rescue != par) { par = rescue; reconfigs += 1 }
      run = Simulator.run(dag, rates, par, mode)
      if (!run.jobBackpressure) foldSafe(st, par)
    }
    ProcessResult(par, reconfigs, if (run.jobBackpressure) 1 else 0, run)
  }
}

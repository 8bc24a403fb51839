package repro.baselines

import repro.dataflow._
import repro.workloads.Workload

/** DS2 (Kalavri et al., OSDI'18): assumes processing ability is linear in
  * parallelism; each step recommends p = ceil(required rate / measured
  * per-instance useful-time rate) for every operator, iterating until the
  * recommendation stabilizes. No use of history — every rate change starts
  * from fresh measurements (§VI).
  */
final class Ds2Session(workload: Workload, mode: SimMode) extends RateBasedSession(workload, mode) {
  override val methodName = "DS2"

  override protected def recommend(rates: Map[String, Double], obs: RunResult, iter: Int): Array[Int] = {
    val req = RateEstimator.requiredRates(dag, rates, obs)
    Array.tabulate(dag.size) { i =>
      val op = dag.ops(i)
      if (op.opType == OpType.Source) 1
      else {
        val perInstance = obs.ops(op.id).measuredPerInstanceRate
        math.min(pMax, math.max(1, math.ceil(req(i) / perInstance).toInt))
      }
    }
  }

  // Asymmetric fixed-point test: a recommendation *above* the running
  // configuration signals missing capacity and always triggers a redeploy
  // (so measurement jitter keeps DS2 reconfiguring — §V-D); a slightly
  // lower one is within noise and is not acted on (scaling down on jitter
  // would immediately bottleneck).
  override protected def settled(rec: Array[Int], par: Array[Int]): Boolean =
    rec.indices.forall { i =>
      rec(i) <= par(i) && par(i) - rec(i) <= math.max(1, math.ceil(0.02 * par(i)).toInt)
    }
}

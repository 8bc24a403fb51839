package repro.baselines

import repro.core.{ProcessResult, TuningSession}
import repro.dataflow._
import repro.workloads.Workload

/** Shared rate-propagation used by the rate-based tuners: the announced
  * source rates pushed through the *measured* operator selectivities (the
  * tuner cannot observe true selectivities — measurement error compounds
  * along deep DAGs, which is why these methods degrade on structurally
  * complex queries, §V-D).
  */
object RateEstimator {
  /** Required rate of every operator, by position in `dag.ops`. */
  def requiredRates(dag: Dag, sourceRates: Map[String, Double], obs: RunResult): Array[Double] = {
    val req = new Array[Double](dag.size)
    dag.topo.foreach { i =>
      val ups = dag.upstream(i)
      if (ups.isEmpty) req(i) = sourceRates(dag.ops(i).id)
      else {
        // Left to right from 0.0, the order and bits of `.map(...).sum`.
        var s = 0.0
        var j = 0
        while (j < ups.length) { val u = ups(j); s += req(u) * obs.ops(dag.ops(u).id).measuredSelectivity; j += 1 }
        req(i) = s
      }
    }
    req
  }
}

/** The closed loop DS2 and ContTune share: measure the running
  * configuration, recommend a new one, redeploy, and repeat until the
  * recommendation settles without backpressure or the iteration budget
  * runs out. A method supplies only its recommendation and its settle test.
  * Configurations are parallelisms by position in `dag.ops`; the id-keyed
  * map `Simulator.run` and `ProcessResult` take is built once per deploy.
  */
abstract class RateBasedSession(workload: Workload, mode: SimMode) extends TuningSession {
  protected val pMax = TuningSession.maxParallelism(mode)
  protected val dag  = workload.dag
  private var measurementEpoch = 0L

  /** The next configuration, given the latest measurement of the running
    * one; `iter` counts the recommendations already made in this process.
    */
  protected def recommend(rates: Map[String, Double], obs: RunResult, iter: Int): Array[Int]

  /** Whether a recommendation made without backpressure ends the process. */
  protected def settled(rec: Array[Int], par: Array[Int]): Boolean

  /** Sees every measured deployment, the first one of a process included. */
  protected def observe(obs: RunResult): Unit = ()

  private def measure(rates: Map[String, Double], par: Map[String, Int]): RunResult = {
    val obs = Simulator.run(dag, rates, par, mode, noiseEpoch = measurementEpoch)
    observe(obs)
    obs
  }

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    val rates = workload.rates(multiplier, mode)
    measurementEpoch += 1
    var deployed = current
    var obs = measure(rates, deployed)
    var par = dag.ops.iterator.map(op => current(op.id)).toArray
    var reconfigs = 0
    var iter = 0
    var done = false
    while (!done && iter < TuningSession.maxIter) {
      val rec = recommend(rates, obs, iter)
      if (!obs.jobBackpressure && settled(rec, par)) done = true
      else {
        // Under backpressure the loop must make progress: a saturated
        // operator's observed throughput per instance is exact, so a
        // detected bottleneck is always scaled up, never sideways, whatever
        // the recommendation currently believes.
        val target =
          if (obs.jobBackpressure)
            Array.tabulate(dag.size) { i =>
              val floor = if (obs.ops(dag.ops(i).id).overloaded) par(i) + 1 else 1
              math.min(pMax, math.max(rec(i), floor))
            }
          else rec
        if (java.util.Arrays.equals(target, par)) done = true // no further adjustment available
        else {
          par = target
          deployed = dag.ops.indices.map(i => dag.ops(i).id -> par(i)).toMap
          reconfigs += 1
          obs = measure(rates, deployed)
        }
      }
      iter += 1
    }
    ProcessResult(deployed, reconfigs, if (obs.jobBackpressure) 1 else 0, obs)
  }
}

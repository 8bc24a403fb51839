package repro.core

import repro.dataflow.{RunResult, SimConstants}

/** Algorithm 1: operator-level bottleneck identification.
  *
  * Given one executed deployment (a [[RunResult]]), produce per-operator
  * labels: 1 = bottleneck, 0 = not a bottleneck, -1 = unlabeled (the
  * presence of job-level backpressure makes the operator's upstream data
  * rate unrepresentative, so its sufficiency cannot be judged).
  */
object Labeler {

  def label(run: RunResult): Map[String, Int] = {
    val dag = run.dag
    // Line 1: everything starts unlabeled.
    val labels = Array.fill(dag.size)(-1)

    // Lines 2-6: no job-level backpressure => no bottlenecks anywhere.
    if (!run.jobBackpressure) java.util.Arrays.fill(labels, 0)
    else {
      val m = dag.ops.map(o => run.ops(o.id))
      // Line 7: operators under backpressure whose downstream operators are
      // all free of backpressure — the backpressure frontier. Lines 8-16:
      // examine the resource utilization of each frontier operator's direct
      // downstream operators.
      dag.ops.indices.foreach { i =>
        if (m(i).backpressured && dag.downstream(i).forall(d => !m(d).backpressured))
          dag.downstream(i).foreach { d =>
            labels(d) = if (m(d).utilization > SimConstants.cpuThreshold) 1 else 0
          }
      }
    }
    dag.ops.indices.map(i => dag.ops(i).id -> labels(i)).toMap
  }
}

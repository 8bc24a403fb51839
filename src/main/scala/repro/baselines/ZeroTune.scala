package repro.baselines

import repro.core.{GnnEncoder, Pretrain, ProcessResult, TuningSession}
import repro.dataflow._
import repro.workloads.Workload

/** ZeroTune (Agnihotri et al., ICDE'24): a zero-shot GNN cost model that
  * predicts *job-level* performance from the whole dataflow (mean-pooled
  * operator embeddings) and picks initial parallelism degrees.
  *
  * As in §V-A: ZeroTune does not define an iterative tuning strategy, so we
  * sample groups of parallelism degrees and select the group with the
  * lowest estimated cost — a single reconfiguration per rate change. Its
  * objective ignores resource usage, so it systematically overprovisions
  * (§V-C), and it is only applicable to the PQP queries it was built for.
  */
final class ZeroTuneSession(
    encoder: GnnEncoder,
    workload: Workload,
    mode: SimMode,
) extends TuningSession {
  override val methodName = "ZeroTune"
  private val dag = workload.dag
  private val samples    = 300 // candidate parallelism groups per process
  private val sampleMaxP = 80  // candidates draw each operator's p from [1, sampleMaxP]
  private val seed       = 31L
  private var processCounter = 0L

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    val rates  = workload.rates(multiplier, mode)
    val sample = Pretrain.agnosticSample(dag, rates)
    val emb    = encoder.embed(sample)
    val nOps   = dag.ops.size
    // Fresh candidate draws every process: re-visiting a rate level is a
    // new sampled search, so one unlucky draw cannot repeat twelve times.
    processCounter += 1

    var bestCost = Double.PositiveInfinity
    var bestP: Array[Int] = null
    var s = 0
    while (s < samples) {
      val ps = Array.tabulate(nOps) { i =>
        if (dag.ops(i).opType == OpType.Source) 1
        else 1 + (DetRandom.unit(seed, workload.key, multiplier, processCounter, s, i) * sampleMaxP).toInt
          .min(sampleMaxP - 1)
      }
      val pNorm = ps.map(p => repro.core.Features.pNorm(p))
      val cost  = encoder.jobCostFromEmbedding(emb, pNorm)
      if (cost < bestCost) { bestCost = cost; bestP = ps }
      s += 1
    }

    val rec = dag.ops.zipWithIndex.map { case (op, i) => op.id -> bestP(i) }.toMap
    val reconfigs = if (rec != current) 1 else 0
    val run = Simulator.run(dag, rates, rec, mode)
    ProcessResult(rec, reconfigs, if (run.jobBackpressure) 1 else 0, run)
  }
}

package repro.core

import repro.dataflow._
import repro.workloads.Workload

/** One historical execution: a simulated deployment plus its Algorithm-1
  * bottleneck labels.
  */
final case class HistoryRun(
    workloadKey: String,
    run: RunResult,
    labels: Map[String, Int],
)

/** A pre-trained cluster: its similarity-center DAG, member DAG names, the
  * cluster's GNN encoder, and the cluster's history (used to construct
  * warm-up datasets for online fine-tuning, Algorithm 2 line 3).
  */
final case class ClusterModel(
    id: Int,
    centerGraph: LabeledGraph,
    memberDags: Set[String],
    encoder: GnnEncoder,
    history: Vector[HistoryRun],
) {
  /** ConstructWarmUpDataset: embed sampled cluster history through the
    * frozen encoder; rows are (parallelism-agnostic embedding, parallelism,
    * label) for every labeled operator, capped for fine-tuning efficiency.
    * The default set is cached: sessions for every workload in the same
    * cluster share it instead of re-embedding the whole cluster history.
    */
  lazy val defaultWarmUpRows: Vector[TrainRow] = warmUpRows()

  private val warmUpSeed = 5L

  def warmUpRows(cap: Int = 8000): Vector[TrainRow] = {
    val rows = Vector.newBuilder[TrainRow]
    history.foreach { h =>
      val sample = Pretrain.toSample(h)
      val emb    = encoder.embed(sample)
      val dag    = h.run.dag
      dag.ops.zipWithIndex.foreach { case (op, i) =>
        val l = h.labels(op.id)
        if (l >= 0) rows += TrainRow(emb(i), h.run.parallelisms(op.id), l)
      }
    }
    val all = rows.result()
    if (all.size <= cap) all
    else {
      // Seeded subsample, keeping all positives (they carry the threshold).
      val (pos, neg) = all.partition(_.label == 1)
      val keepNeg = neg.zipWithIndex
        .filter { case (_, i) => DetRandom.unit(warmUpSeed, "warm", i) < (cap - pos.size).toDouble / neg.size }
        .map(_._1)
      pos ++ keepNeg
    }
  }
}

/** The full pre-trained artifact for one execution mode. */
final case class Pretrained(mode: SimMode, clusters: Vector[ClusterModel]) {
  /** Algorithm 2 line 1: nearest cluster by GED to the similarity centers. */
  def assign(dag: Dag): ClusterModel = {
    val g = LabeledGraph.from(dag)
    clusters.minBy(c => (Ged.distance(g, c.centerGraph), c.id))
  }
}

/** Offline pre-training phase (§III, §IV-A): generate execution histories,
  * cluster their DAGs with GED K-means, and train one GNN-based encoder per
  * cluster on the operator-level bottleneck classification task.
  */
object Pretrain {

  /** Normalized job-level cost used by the ZeroTune baseline's regression
    * objective: log mean per-epoch latency relative to the zero-load base.
    */
  def jobCost(run: RunResult): Double = {
    val lat = Simulator.epochLatencies(run)
    math.log(lat.sum / lat.size / 0.25)
  }

  /** A [[GraphSample]] of `dag` at the given source rates: features plus
    * the DAG's own upstream/downstream position arrays.
    */
  private def sample(dag: Dag, sourceRates: Map[String, Double], pNorm: Array[Double],
      labels: Array[Int], jobCost: Double): GraphSample =
    GraphSample(
      x = Features.encodeDag(dag, sourceRates),
      upstream = dag.upstream,
      downstream = dag.downstream,
      pNorm = pNorm,
      labels = labels,
      jobCost = jobCost,
    )

  /** Build a [[GraphSample]] from a labeled history run. */
  def toSample(h: HistoryRun): GraphSample = {
    val dag = h.run.dag
    sample(dag, h.run.sourceRates,
      pNorm = dag.ops.map(op => Features.pNorm(h.run.parallelisms(op.id))).toArray,
      labels = dag.ops.map(op => h.labels(op.id)).toArray,
      jobCost = jobCost(h.run))
  }

  /** A parallelism-agnostic sample of a DAG at given source rates (pNorm
    * zeroed; used for embedding during online tuning).
    */
  def agnosticSample(dag: Dag, sourceRates: Map[String, Double]): GraphSample =
    sample(dag, sourceRates, pNorm = new Array[Double](dag.ops.size),
      labels = Array.fill(dag.ops.size)(-1), jobCost = 0.0)

  /** Generate `runsPer` historical executions per workload: source-rate
    * multipliers drawn continuously from (1, 10) — disjoint from the
    * integer multipliers used during online tuning (§V-A pre-training
    * setup) — and parallelism degrees drawn uniformly from [1, 60].
    */
  def generateHistories(
      workloads: Seq[Workload],
      mode: SimMode,
      runsPer: Int,
      seed: Long = 17,
  ): Vector[HistoryRun] = {
    workloads.toVector.flatMap { w =>
      (0 until runsPer).map { r =>
        // Stratified across runs so the (1, 10) range is covered; continuous
        // draws keep the pre-training rates disjoint from the integer
        // multipliers used online.
        val u = (r + DetRandom.unit(seed, w.key, r, "rate")) / runsPer
        val m = math.min(9.97, 1.0 + 9.0 * u)
        val par = w.dag.ops.map { op =>
          // Half log-uniform, half uniform over [1, 100]: thresholds span
          // two orders of magnitude across workloads and the labels must
          // straddle each of them — log-uniform covers the small ones
          // densely, uniform keeps coverage at high parallelism.
          val p =
            if (op.opType == OpType.Source) 1
            else {
              val u = DetRandom.unit(seed, w.key, r, op.id, "p")
              if (DetRandom.unit(seed, w.key, r, op.id, "mix") < 0.5)
                math.min(100, math.max(1, math.exp(u * math.log(100.0)).toInt))
              else 1 + (u * 100).toInt.min(99)
            }
          op.id -> p
        }.toMap
        val run = Simulator.run(w.dag, w.rates(m, mode), par, mode)
        HistoryRun(w.key, run, Labeler.label(run))
      }
    }
  }

  /** Full offline pre-training. `k = 0` selects k with the elbow method. */
  def pretrain(
      workloads: Seq[Workload],
      mode: SimMode,
      runsPer: Int = 40,
      k: Int = 0,
      epochs: Int = 25,
      seed: Long = 17,
  ): Pretrained = {
    val histories = generateHistories(workloads, mode, runsPer, seed)

    // Cluster every workload's DAG, one graph per workload: workloads that
    // share a structure enter the elbow and K-means as separate graphs.
    val workloadDags = workloads.map(_.dag).toVector
    val graphs = workloadDags.map(LabeledGraph.from)
    val kUse =
      if (k > 0) k
      else if (graphs.size <= 3) 1
      else Clustering.elbowK(graphs, 2 to math.min(7, graphs.size - 1), seed = seed)
    val km = Clustering.kmeans(graphs, kUse, seed = seed)

    val byDagName = histories.groupBy(_.run.dag.name)
    val members = (0 until kUse).toVector.map(c => graphs.indices.filter(km.assignment(_) == c))
    val clusterHists = members.map(_.toVector.flatMap(i => byDagName.getOrElse(workloadDags(i).name, Vector.empty)))
    val samples = clusterHists.map(_.map(toSample).filter(_.labels.exists(_ >= 0)))
    val encoders = (0 until kUse).toVector.map { c =>
      new GnnEncoder(
        inputDim = Features.dim, hidden = 24, layers = 5,
        objective = Gnn.BottleneckClassification, seed = DetRandom.mix(seed, "enc", c),
      )
    }
    // Each encoder is seeded per cluster and touches only its own weights,
    // so training them concurrently gives the same weights as one after
    // another. Largest cluster first: it bounds the wall time.
    val order = (0 until kUse).filter(samples(_).nonEmpty).sortBy(c => -samples(c).size)
    Workers.map(order, Runtime.getRuntime.availableProcessors())(c => encoders(c).train(samples(c), epochs))
    val clusters = (0 until kUse).toVector.map { c =>
      ClusterModel(c, graphs(km.centers(c)), members(c).map(workloadDags(_).name).toSet, encoders(c), clusterHists(c))
    }
    Pretrained(mode, clusters)
  }

  /** Train the ZeroTune-style global job-cost regressor on PQP histories
    * (ZeroTune is zero-shot: one global model, no clustering; §V-A notes it
    * is specific to PQP queries).
    */
  def pretrainZeroTune(
      workloads: Seq[Workload],
      mode: SimMode,
      runsPer: Int = 40,
      epochs: Int = 120,
  ): GnnEncoder = {
    val seed = 23L
    val histories = generateHistories(workloads, mode, runsPer, seed)
    val enc = new GnnEncoder(
      inputDim = Features.dim, hidden = 16, layers = 4,
      objective = Gnn.JobCostRegression, seed = DetRandom.mix(seed, "zt"),
    )
    enc.train(histories.map(toSample), epochs)
    enc
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow._
import repro.harness.{Evaluation, WorkloadStats}
import repro.workloads.{Nexmark, Pqp}
import scala.collection.mutable.ArrayBuffer

/** Shared tiny pre-training artifact so the pipeline tests do not retrain
  * per test. Small but real: 5 workloads, 40 runs each, 6 epochs.
  */
object TinyPretrain {
  val workloads = Vector(Nexmark.q2, Nexmark.q3, Pqp.linear(0), Pqp.linear(1), Pqp.twoWayJoin(0))
  lazy val pre: Pretrained =
    Pretrain.pretrain(workloads, SimMode.Flink, runsPer = 40, k = 2, epochs = 6)
}

class PretrainSpec extends AnyFunSuite {

  test("histories respect the sampling protocol (rates in (1,10), p in [1,100])") {
    val hist = Pretrain.generateHistories(TinyPretrain.workloads, SimMode.Flink, runsPer = 10)
    assert(hist.size == 50)
    hist.foreach { h =>
      h.run.parallelisms.foreach { case (id, p) =>
        assert(p >= 1 && p <= 100)
        if (h.run.dag.ops(h.run.dag.index(id)).opType == OpType.Source) assert(p == 1)
      }
    }
  }

  test("histories are labeled by Algorithm 1") {
    val hist = Pretrain.generateHistories(TinyPretrain.workloads, SimMode.Flink, runsPer = 10)
    hist.foreach { h =>
      assert(h.labels == Labeler.label(h.run))
    }
  }

  test("histories contain both classes of labels") {
    val hist = Pretrain.generateHistories(TinyPretrain.workloads, SimMode.Flink, runsPer = 40)
    val labels = hist.flatMap(_.labels.values)
    assert(labels.count(_ == 1) > 10, "need positive bottleneck labels")
    assert(labels.count(_ == 0) > 100, "need negative labels")
  }

  test("pretrain builds the requested number of clusters with members") {
    val pre = TinyPretrain.pre
    assert(pre.clusters.size == 2)
    assert(pre.clusters.flatMap(_.memberDags).toSet ==
      TinyPretrain.workloads.map(_.dag.name).toSet)
    pre.clusters.foreach(c => assert(c.history.nonEmpty))
  }

  test("cluster assignment returns a cluster containing structurally similar DAGs") {
    val pre = TinyPretrain.pre
    val c = pre.assign(Pqp.linear(0).dag)
    assert(c.memberDags.contains(Pqp.linear(0).dag.name))
  }

  test("assignment of an unseen but similar DAG lands in a sane cluster") {
    val pre = TinyPretrain.pre
    val unseen = Pqp.linear(3).dag // same template, unseen variant
    val c = pre.assign(unseen)
    assert(pre.clusters.contains(c))
  }

  test("warm-up rows carry embeddings of the encoder's dimension") {
    val c = TinyPretrain.pre.clusters.maxBy(_.history.size)
    val rows = c.defaultWarmUpRows
    assert(rows.nonEmpty)
    rows.take(50).foreach { r =>
      assert(r.h.length == c.encoder.hidden)
      assert(r.p >= 1 && r.p <= 100)
      assert(r.label == 0 || r.label == 1)
    }
  }

  test("warm-up subsampling keeps all positives") {
    val c = TinyPretrain.pre.clusters.maxBy(_.history.size)
    val all = c.warmUpRows(cap = Int.MaxValue)
    val capped = c.warmUpRows(cap = 100)
    assert(capped.count(_.label == 1) == all.count(_.label == 1))
  }

  test("toSample aligns labels and parallelisms with dag.ops order") {
    val hist = Pretrain.generateHistories(Seq(Nexmark.q3), SimMode.Flink, runsPer = 2)
    hist.foreach { h =>
      val s = Pretrain.toSample(h)
      h.run.dag.ops.zipWithIndex.foreach { case (op, i) =>
        assert(s.labels(i) == h.labels(op.id))
        assert(s.pNorm(i) == Features.pNorm(h.run.parallelisms(op.id)))
      }
    }
  }

  test("agnostic samples zero out parallelism and labels") {
    val s = Pretrain.agnosticSample(Nexmark.q5.dag, Nexmark.q5.rates(3, SimMode.Flink))
    assert(s.pNorm.forall(_ == 0.0))
    assert(s.labels.forall(_ == -1))
  }

  test("job cost separates backpressured from healthy runs") {
    val d = repro.dataflow.TestDags.chain()
    val bad  = Simulator.run(d, Map("src" -> 5e6), d.ops.map(_.id -> 1).toMap, SimMode.Flink)
    val good = Simulator.run(d, Map("src" -> 1e3), d.ops.map(_.id -> 10).toMap, SimMode.Flink)
    assert(Pretrain.jobCost(bad) > Pretrain.jobCost(good) + 1.0)
  }
}

/** Pre-training whose cluster encoders train concurrently must give the
  * weights the one-after-another pipeline gives.
  */
class ConcurrentPretrainSpec extends AnyFunSuite {
  // Every sixth job from the fourth on: at seed 17 the elbow picks k = 6
  // with four non-empty clusters and two empty ones.
  private val fleet = repro.workloads.Workloads.all.zipWithIndex.collect { case (w, i) if i % 6 == 3 => w }
  private val runsPer = 10
  private val epochs  = 2
  private val seed    = 17L

  private def pretrain() = Pretrain.pretrain(fleet, SimMode.Flink, runsPer = runsPer, epochs = epochs, seed = seed)

  /** The offline phase rebuilt sequentially from its public parts, as
    * `Pretrain.pretrain` ran it before its encoders trained concurrently.
    */
  private def sequential(): (Vector[Set[String]], Vector[GnnEncoder], Vector[Vector[HistoryRun]]) = {
    val histories = Pretrain.generateHistories(fleet, SimMode.Flink, runsPer, seed)
    val dags = fleet.map(_.dag)
    val graphs = dags.map(LabeledGraph.from)
    val k = Clustering.elbowK(graphs, 2 to math.min(7, graphs.size - 1), 5.0, seed)
    val km = Clustering.kmeans(graphs, k, 5.0, seed = seed)
    val byDag = histories.groupBy(_.run.dag.name)
    (0 until k).toVector.map { c =>
      val memberIdx = graphs.indices.filter(km.assignment(_) == c)
      val hist = memberIdx.toVector.flatMap(i => byDag.getOrElse(dags(i).name, Vector.empty))
      val enc = new GnnEncoder(
        inputDim = Features.dim, hidden = 24, layers = 5,
        objective = Gnn.BottleneckClassification, seed = DetRandom.mix(seed, "enc", c))
      val samples = hist.map(Pretrain.toSample).filter(_.labels.exists(_ >= 0))
      if (samples.nonEmpty) enc.train(samples, epochs)
      (memberIdx.map(dags(_).name).toSet, enc, hist)
    }.unzip3
  }

  private def bits(enc: GnnEncoder, probe: GraphSample): Vector[Long] =
    enc.predictProbs(probe).map(java.lang.Double.doubleToLongBits).toVector

  test("concurrently trained encoders equal sequentially trained ones bit for bit") {
    val pre = pretrain()
    val (members, encoders, hists) = sequential()
    assert(pre.clusters.map(_.memberDags) == members)
    assert(pre.clusters.count(_.history.nonEmpty) >= 3, pre.clusters.map(_.memberDags))
    assert(pre.clusters.exists(_.memberDags.isEmpty), pre.clusters.map(_.memberDags))
    // A probe from every non-empty cluster, scored by every encoder (the
    // empty clusters' untrained ones included).
    val probes = hists.filter(_.nonEmpty).map(h => Pretrain.toSample(h.head))
    pre.clusters.zip(encoders).foreach { case (c, enc) =>
      probes.foreach(p => assert(bits(c.encoder, p) == bits(enc, p), s"cluster ${c.id}"))
    }
  }

  test("two pre-trainings running at once give identical results") {
    // Each call also submits its encoders to the shared pool from inside a
    // worker of that pool.
    val Vector(a, b) = Workers.map(Vector(1, 2), workers = 2)(_ => pretrain())
    assert(a.clusters.map(_.memberDags) == b.clusters.map(_.memberDags))
    val probes = a.clusters.filter(_.history.nonEmpty).map(c => Pretrain.toSample(c.history.head))
    a.clusters.zip(b.clusters).foreach { case (x, y) =>
      probes.foreach(p => assert(bits(x.encoder, p) == bits(y.encoder, p), s"cluster ${x.id}"))
    }
  }
}

class TunerSpec extends AnyFunSuite {

  private def session(w: repro.workloads.Workload) =
    new StreamTuneSession(TinyPretrain.pre, w, new MonotonicSvm(TinyPretrain.pre.clusters.head.encoder.hidden))

  test("a tuning process ends free of backpressure") {
    val w = Pqp.linear(0)
    val s = session(w)
    val r = s.tuneProcess(10, TuningSession.initialConfig(w))
    assert(r.backpressureAtEnd == 0)
    assert(!r.finalRun.jobBackpressure)
  }

  test("sources stay at parallelism 1") {
    val w = Nexmark.q3
    val s = session(w)
    val r = s.tuneProcess(7, TuningSession.initialConfig(w))
    w.dag.sources.foreach(src => assert(r.parallelisms(src.id) == 1))
  }

  test("repeated rates converge to a stable recommendation") {
    val w = Pqp.twoWayJoin(0)
    val s = session(w)
    var cur = TuningSession.initialConfig(w)
    val results = (0 until 4).map { _ =>
      val r = s.tuneProcess(5, cur); cur = r.parallelisms; r
    }
    assert(results.last.reconfigurations <= 1)
    assert(results.last.parallelisms == results(2).parallelisms)
  }

  test("scaling down after a rate drop frees resources without backpressure") {
    val w = Pqp.linear(1)
    val s = session(w)
    val hi = s.tuneProcess(10, TuningSession.initialConfig(w))
    val lo = s.tuneProcess(1, hi.parallelisms)
    assert(lo.parallelisms.values.sum <= hi.parallelisms.values.sum)
    assert(lo.backpressureAtEnd == 0)
  }

  test("recommendations never exceed the physical maximum") {
    val w = Nexmark.q2
    val s = session(w)
    val r = s.tuneProcess(10, TuningSession.initialConfig(w))
    assert(r.parallelisms.values.forall(_ <= SimConstants.maxParallelismFlink))
  }

  test("M_f's rows beyond the cap are the earlier positives, then the recent rows") {
    // Against the selection as written with collection operations.
    val rng = new scala.util.Random(21)
    val hv = Array(0.5)
    for (cap <- Seq(8, 9, 40, 9000); size <- Seq(cap - 1, cap, cap + 1, cap + 3, 2 * cap + 5, 5 * cap);
         share <- Seq(0.0, 0.1, 0.9)) {
      val t = ArrayBuffer.tabulate(size)(i => TrainRow(hv, 1 + i % 7, if (rng.nextDouble() < share) 1 else 0))
      val want =
        if (t.size <= cap) t.toVector
        else t.dropRight(cap * 3 / 4).filter(_.label == 1).takeRight(cap / 4).toVector ++ t.takeRight(cap * 3 / 4)
      val got = StreamTuneSession.fitRows(t, cap)
      assert(got.length == want.length && got.indices.forall(i => got(i) eq want(i)), s"cap $cap, size $size, share $share")
    }
  }

  test("the fine-tuning dataset grows with feedback") {
    // Delegates to the SVM and records the size of every set M_f is fitted on.
    final class CountingModel(inner: FineTuneModel) extends FineTuneModel {
      val fitSizes = ArrayBuffer[Int]()
      def fit(rows: IndexedSeq[TrainRow]): Unit = { fitSizes += rows.size; inner.fit(rows) }
      def bottleneckProb(h: Array[Double], p: Int): Double = inner.bottleneckProb(h, p)
      def monotonic: Boolean = inner.monotonic
      def name: String = inner.name
    }
    val w = Pqp.linear(0)
    val model = new CountingModel(new MonotonicSvm(TinyPretrain.pre.clusters.head.encoder.hidden))
    val s = new StreamTuneSession(TinyPretrain.pre, w, model)
    val warm = s.cluster.defaultWarmUpRows.size
    s.tuneProcess(4, TuningSession.initialConfig(w))
    s.tuneProcess(8, TuningSession.initialConfig(w))
    // Construction fits the warm-up set alone. Within the first ten
    // processes M_f is refit only after a deploy yields a bottleneck label,
    // and Algorithm 1 labels a bottleneck only under job backpressure.
    assert(warm > 0 && model.fitSizes.head == warm)
    assert(model.fitSizes.size > 1, "no deploy was backpressured")
    assert(model.fitSizes.tail.forall(_ > warm), model.fitSizes)
  }

  private def pinned(model: Int => FineTuneModel, jobs: Seq[repro.workloads.Workload], name: String) =
    jobs.map(w => Evaluation.runOne(w, SimMode.Flink, name, Evaluation.streamTuneFactory(TinyPretrain.pre, model)))

  test("StreamTune(SVM) decisions over the full rate pattern are pinned") {
    // Exact figures of the reference run, on the guarded path. Every job
    // takes both bounds-driven branches: the bracket bisects 171-706 times
    // per job, and 4-14 processes per job end with the rescue deploy.
    val expected = Seq(
      WorkloadStats("StreamTune(SVM)", "Q3", "Q3", "Flink", 120, 163, 1.3583333333333334, 0, 59.0,
        0.33413618828411085, 0.3506618031130803, 0.35228343390382105),
      WorkloadStats("StreamTune(SVM)", "Q5", "Q5", "Flink", 120, 177, 1.475, 0, 48.0,
        0.33707721114727746, 0.3520335289785142, 0.35365509550551627),
      WorkloadStats("StreamTune(SVM)", "Q8", "Q8", "Flink", 120, 209, 1.7416666666666667, 0, 115.0,
        0.3396751458231322, 0.35234638370627597, 0.35317709955522336),
      WorkloadStats("StreamTune(SVM)", "Linear-2", "Linear", "Flink", 120, 213, 1.775, 0, 101.0,
        0.3391891420023687, 0.3514121231576292, 0.35243034975611537),
      WorkloadStats("StreamTune(SVM)", "3-way-join-8", "3-way-join", "Flink", 120, 165, 1.375, 0, 29.0,
        0.3357037670814556, 0.3513829984404012, 0.3519013718974781),
    )
    val jobs = Seq(Nexmark.q3, Nexmark.q5, Nexmark.q8, Pqp.linear(2), Pqp.threeWayJoin(8))
    assert(pinned(Evaluation.svmModel, jobs, "StreamTune(SVM)") == expected)
  }

  test("StreamTune(NN) decisions over the full rate pattern are pinned") {
    // The unguarded path: a non-monotonic M_f gets no brackets, headroom or
    // rescue. Exact figures of the reference run.
    val expected = Seq(
      WorkloadStats("StreamTune(NN)", "Q2", "Q2", "Flink", 120, 24, 0.2, 40, 201.0,
        0.2999171401065003, 0.31309859589538175, 0.3141803429803352),
      WorkloadStats("StreamTune(NN)", "Q5", "Q5", "Flink", 120, 24, 0.2, 48, 301.0,
        0.27325857517310764, 0.28538322188680737, 0.28669777814888403),
    )
    assert(pinned(Evaluation.nnModel, Seq(Nexmark.q2, Nexmark.q5), "StreamTune(NN)") == expected)
  }
}

package repro.pipebench

import repro.baselines.RateEstimator
import repro.core._
import repro.dataflow._
import repro.harness.{Evaluation, WorkloadStats}
import repro.workloads.{Workload, Workloads}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** The online workloads: closed-loop tuning sessions driven through
  * `Evaluation.evaluate`, each issuing its next rate change only after
  * `tuneProcess` returns.
  *
  * A pass runs every job once over a 120-change pattern; passes are
  * deterministic, so the same process in two passes of one pattern seed is
  * the same work. The timed phase runs rounds of one pass per pattern seed;
  * the first round gives the quality cells and every later pass must
  * reproduce its seed's first pass exactly. A step's time is in refs (see
  * [[Reference]]), the median of its repetitions.
  */
object TuneBench {
  /** Jobs from every group, costliest sessions first so a parallel pass ends
    * with the short ones: 840 processes per pass.
    */
  val jobKeys: Vector[String] =
    Vector("Linear-2", "3-way-join-8", "Q8", "Q3", "2-way-join-11", "2-way-join-4", "Q5")

  /** StreamTune's pre-training is part of set-up; it is shrunk by epochs only,
    * so the warm-up sets keep their full size.
    */
  val runsPer = 150
  val epochs  = 1

  /** Every pattern seed's pass runs at least this often in the timed phase. */
  val minRounds = 3

  private val mode = SimMode.Flink

  /** What a finished session leaves behind; the session itself is dropped. */
  private final case class Done(
      pass: Int, method: String, job: String, initNs: Long, initMf: MfCounts,
      records: Vector[ProcessRecord], finalRuns: Vector[RunResult])

  private final case class Method(name: String, factory: (Int => FineTuneModel) => Workload => TuningSession)

  def run(ctx: Ctx, streamTune: Boolean): Unit = {
    val jobs   = jobKeys.map(Workloads.byKey)
    val pMax   = TuningSession.maxParallelism(mode)
    val kq     = if (streamTune) 2 else 5
    // StreamTune's sessions run nproc at once, as the closed loop would be
    // deployed; a rate-based pass is short enough to repeat many times on
    // one thread.
    val threads = if (streamTune) ctx.threads else 1
    val seeds  = (0 until kq).map(i => Seeds.derive(ctx.seed, "pattern", i))
    val tracer = ctx.tracer
    ctx.log(s"jobs ${jobKeys.mkString(", ")}; pattern seeds ${seeds.mkString(", ")}")

    val warmupBuild = ArrayBuffer.empty[Double]
    def plainEval(methods: Seq[Method], seed: Long, threads: Int): Vector[WorkloadStats] =
      Evaluation.evaluate(jobs, mode, methods.map(m => m.name -> m.factory(Evaluation.svmModel)), threads, seed)

    // Set-up: StreamTune pre-trains and builds its warm-up sets, then runs one
    // unwrapped pass; the rate-based tuners need nothing, so their set-up is
    // that pass alone. It runs nproc sessions at once and is the reference
    // every timed pass must reproduce.
    val (pre, methods, reference) =
      if (streamTune) {
        val pre = ctx.setup(digest) {
          val p = Pretrain.pretrain(Workloads.all, mode, runsPer = runsPer, epochs = epochs, seed = PretrainBench.trainSeed)
          val t0 = System.nanoTime()
          p.clusters.foreach(_.defaultWarmUpRows)
          warmupBuild += (System.nanoTime() - t0) / 1e9
          p
        }
        val methods = Seq(Method("StreamTune", m => Evaluation.streamTuneFactory(pre, m)))
        (Some(pre), methods, plainEval(methods, seeds(0), ctx.threads))
      } else {
        val methods = Seq(
          Method("DS2", _ => Evaluation.ds2Factory(mode)),
          Method("ContTune", _ => Evaluation.contTuneFactory(mode)))
        (None, methods, ctx.setup[Vector[WorkloadStats]](identity, reps = 5)(plainEval(methods, seeds(0), ctx.threads)))
      }

    // StreamTune's reference pass warms the JIT. A rate-based pass is short,
    // and the code of its slowest processes is still being compiled in the
    // first rounds, so two untimed rounds go first.
    if (!streamTune)
      (1 to 2).foreach(_ => seeds.foreach(s => plainEval(methods, s, threads)))

    // Timed phase: whole rounds, at least `minRounds` of them, until
    // `--seconds` have passed.
    val passStats = ArrayBuffer.empty[Vector[WorkloadStats]]
    val sessions  = ArrayBuffer.empty[Done]
    val passWalls = ArrayBuffer.empty[(Int, Long)]
    val t0 = System.nanoTime()
    var pass = 0
    while (pass < kq * minRounds || pass % kq != 0 || System.nanoTime() - t0 < ctx.seconds * 1000000000L) {
      val passSpan = tracer.nextId()
      val made = new ConcurrentLinkedQueue[(Long, TimedSession)]()
      val wrapped = methods.map { m =>
        m.name -> { (w: Workload) =>
          val s0 = System.nanoTime()
          var model: TimedModel = null
          val inner = m.factory { dim =>
            model = new TimedModel(Evaluation.svmModel(dim), pMax, ctx.traced, ctx.violations)
            model
          }(w)
          val s1 = System.nanoTime()
          val sessionSpan = tracer.nextId()
          tracer.span("tuner.session_init", sessionSpan, s0, s1)
          val s = new TimedSession(inner, w, mode, Option(model), s1 - s0, tracer, sessionSpan,
            ctx.violations, keepRuns = pass == 0)
          made.add(s0 -> s)
          s: TuningSession
        }
      }
      val p0 = System.nanoTime()
      val stats = Evaluation.evaluate(jobs, mode, wrapped, threads, seeds(pass % kq))
      val p1 = System.nanoTime()
      tracer.record(Span(passSpan, ctx.rootSpan, "tuner.pass", p0, p1 - p0, 0,
        Seq("pass" -> pass.toString, "pattern_seed" -> seeds(pass % kq).toString)))
      passWalls += (pass % kq) -> (p1 - p0)
      if (pass < kq) passStats += stats
      else ctx.violations.check(stats == passStats(pass % kq), s"pass $pass did not reproduce pass ${pass % kq}")
      made.asScala.foreach { case (s0, s) =>
        tracer.record(Span(s.sessionSpan, passSpan, "tuner.session", s0, s.lastEndNs - s0, 0,
          Seq("method" -> s.methodName, "job" -> s.job)))
        sessions += Done(pass, s.methodName, s.job, s.initNs, s.initMf, s.records.result(), s.finalRuns.result())
      }
      pass += 1
    }
    val timedS = (System.nanoTime() - t0) / 1e9

    ctx.violations.check(passStats(0) == reference, "wrapped sessions decided differently from unwrapped ones")

    val records   = sessions.flatMap(_.records).toVector
    val qualityRs = sessions.filter(_.pass < kq).flatMap(_.records).toVector
    ctx.attempted = records.size.toLong
    ctx.failed    = records.count(_.threw).toLong

    // End-to-end: a step is one tuneProcess call (Fig. 9a), in refs, taken
    // as the median of its repetitions.
    val stepRefs = sessions.groupBy(d => (d.pass % kq, d.method, d.job)).values.toVector.flatMap { reps =>
      val n = reps.head.records.size
      ctx.violations.check(reps.forall(_.records.size == n), "repeated sessions ran different numbers of processes")
      (0 until n).map(i => Stats.median(reps.map(_.records(i).refs).toSeq))
    }
    val p50 = Stats.median(stepRefs)
    val p99 = Stats.quantile(stepRefs, 0.99)
    val perKref = stepRefs.size * 1e3 / stepRefs.sum
    ctx.put("step_ref_p50", p50)
    ctx.put("step_ref_p99", p99)
    ctx.put("steps_per_kref", perKref)
    val quality = passStats.flatten.toVector
    val processes = quality.map(_.processes).sum
    val bp = quality.map(_.backpressureOccurrences).sum
    ctx.put("accuracy", 1.0 - bp.toDouble / processes)
    val allMs = records.map(_.ns / 1e6)
    ctx.log(f"tune_ms_p50 ${Stats.median(allMs)}%.4f ms, tune_ms_p99 ${Stats.quantile(allMs, 0.99)}%.4f ms over " +
      f"${allMs.size} calls; processes_per_s ${records.size / timedS}%.1f at $threads sessions at once")
    ctx.log(f"in refs (fastest ref ${Reference.fastestNs / 1e6}%.4f ms): p50 $p50%.4f, p99 $p99%.4f, " +
      f"$perKref%.3f per kref, over ${stepRefs.size} distinct processes, each the median of ${pass / kq} repetitions")
    ctx.log(s"failed_share ${bp.toDouble / processes} = $bp backpressured or thrown / $processes processes")

    // Quality cells per method, from the quality passes only.
    val allMethods = Seq("StreamTune" -> "streamtune", "DS2" -> "ds2", "ContTune" -> "conttune")
    allMethods.foreach { case (name, key) =>
      val ss = quality.filter(_.method == name)
      if (ss.nonEmpty) {
        val procs = ss.map(_.processes).sum
        val cells = Seq(
          "bp_processes" -> ss.map(_.backpressureOccurrences).sum.toDouble,
          "par_at_10wu" -> ss.map(_.parallelismAt10Wu).sum / ss.size,
          "reconfigs_per_process" -> ss.map(_.totalReconfigurations).sum.toDouble / procs)
        cells.foreach { case (c, v) =>
          ctx.recordQuality(s"$key.$c", v)
          if (ctx.traced) ctx.put(s"$key.$c", v)
        }
      }
    }
    ctx.recordQuality("accuracy", 1.0 - bp.toDouble / processes)
    ctx.recordQuality("par_at_10wu", quality.map(_.parallelismAt10Wu).sum / quality.size)
    ctx.recordQuality("reconfigs_per_process", quality.map(_.totalReconfigurations).sum.toDouble / processes)

    if (ctx.traced) {
      perLayer(ctx, pre, jobs, records, qualityRs, sessions.toVector, sessions.filter(_.pass < kq).toVector,
        warmupBuild.toSeq)
      // Tracing overhead: traced passes against warm unwrapped passes of the
      // same pattern seed.
      val untraced = (1 to (if (streamTune) 1 else 5)).map { _ =>
        val r0 = System.nanoTime()
        ctx.violations.check(plainEval(methods, seeds(0), threads) == reference, "unwrapped passes disagree")
        (System.nanoTime() - r0).toDouble
      }
      val traced = passWalls.collect { case (0, ns) => ns.toDouble }
      ctx.put("trace.overhead_share", Stats.median(traced.toSeq) / Stats.median(untraced) - 1.0)
    }
  }

  /** Digest of a pre-trained artefact, to check that repeated set-ups agree. */
  private def digest(p: Pretrained): Any = p.clusters.map { c =>
    (c.id, c.memberDags.toVector.sorted, c.defaultWarmUpRows.size,
      c.defaultWarmUpRows.map(r => (java.util.Arrays.hashCode(r.h), r.p, r.label)).hashCode)
  }

  private def perLayer(
      ctx: Ctx,
      pre: Option[Pretrained],
      jobs: Vector[Workload],
      records: Vector[ProcessRecord],
      qualityRs: Vector[ProcessRecord],
      sessions: Vector[Done],
      qualitySessions: Vector[Done],
      warmupBuild: Seq[Double],
  ): Unit = {
    // Span accounting: every process span is its M_f children plus self time.
    val selfNs = ctx.tracer.selfNs
    val processSpans = ctx.tracer.all.filter(_.name == "tuner.process")
    processSpans.foreach(s => ctx.violations.check(selfNs(s.id) >= 0, s"span ${s.id}: children outlast the process"))
    val processNs = processSpans.map(_.durNs).sum.toDouble
    ctx.put("core.tuner.process_s", processNs / 1e9)
    ctx.put("core.tuner.self_s", processSpans.map(s => selfNs(s.id)).sum / 1e9)
    ctx.put("core.tuner.session_init_ms", Stats.mean(sessions.map(_.initNs / 1e6)))

    pre.foreach { p =>
      // Counts over the quality passes, which every run repeats exactly;
      // times over all passes, including each session's first fit.
      val all = records.map(_.mf) ++ sessions.map(_.initMf)
      val quality = qualityRs.map(_.mf)
      val qualityFits = quality ++ qualitySessions.map(_.initMf)
      val probNs = records.map(_.mf.probNs).sum.toDouble
      val probCalls = quality.map(_.probCalls).sum
      ctx.put("core.mf.prob_s", probNs / 1e9)
      ctx.put("core.mf.fit_s", records.map(_.mf.fitNs).sum / 1e9)
      ctx.put("core.mf.prob_calls", probCalls.toDouble)
      ctx.put("core.mf.prob_us", probNs / records.map(_.mf.probCalls).sum / 1e3)
      ctx.put("core.mf.prob_share", probNs / processNs)
      ctx.put("core.mf.probs_per_process", probCalls.toDouble / qualityRs.size)
      ctx.put("core.mf.threshold_reuse", probCalls.toDouble / quality.map(_.distinct).sum)
      ctx.put("core.mf.fit_calls", qualityFits.map(_.fitCalls).sum.toDouble)
      ctx.put("core.mf.rows_per_fit", qualityFits.map(_.fitRows).sum.toDouble / qualityFits.map(_.fitCalls).sum)
      ctx.put("core.mf.fit_ms", all.map(_.fitNs).sum / 1e6 / all.map(_.fitCalls).sum)
      ctx.put("core.warmup.rows", p.clusters.map(_.defaultWarmUpRows.size).sum.toDouble)
      ctx.put("core.warmup.build_s", Stats.median(warmupBuild))
      ctx.put("core.pretrained.assign_ms", replay(jobs)(w => p.assign(w.dag)) / 1e3)
      val embedInputs = for (w <- jobs; m <- 1 to 10) yield (w, p.assign(w.dag), w.rates(m.toDouble, mode))
      ctx.put("core.gnn.embed_us", replay(embedInputs) { case (w, c, rates) =>
        c.encoder.embed(Pretrain.agnosticSample(w.dag, rates))
      })
    }

    Seq("DS2" -> "baselines.ds2.process_us", "ContTune" -> "baselines.conttune.process_us").foreach { case (m, k) =>
      val ns = records.filter(_.method == m).map(_.ns / 1e3)
      if (ns.nonEmpty) ctx.put(k, Stats.median(ns))
    }

    // Replays on the exact final deployments of the first pass.
    val finals = sessions.flatMap(_.finalRuns)
    ctx.put("dataflow.simulator.run_us", replay(finals) { r =>
      val again = Simulator.run(r.dag, r.sourceRates, r.parallelisms, mode)
      ctx.violations.check(again.jobBackpressure == r.jobBackpressure, s"${r.dag.name}: replayed run differs")
    })
    ctx.put("core.labeler.label_us", replay(finals)(Labeler.label(_)))
    if (pre.isEmpty)
      ctx.put("baselines.rate_estimator_us", replay(finals)(r => RateEstimator.requiredRates(r.dag, r.sourceRates, r)))
  }

  /** Mean microseconds per call of `f`, over whole sweeps of `items` lasting
    * at least 0.2 s.
    */
  def replay[A](items: Seq[A])(f: A => Any): Double = {
    if (items.isEmpty) return 0.0
    var calls = 0L
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < 200000000L) {
      items.foreach(f)
      calls += items.size
    }
    (System.nanoTime() - t0) / 1e3 / calls
  }
}

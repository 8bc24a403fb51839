package repro.pipebench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark inputs are derived from the workload seed here, never inside the
  * program under test.
  */
object Seeds {
  def derive(seed: Long, tag: String, i: Int = 0): Long =
    new java.util.SplittableRandom(seed * 1000003L + tag.hashCode * 7919L + i).nextLong() & Long.MaxValue
}

/** The metrics every run prints: end-to-end ones untraced, per-layer ones
  * traced. BENCHMARK.json lists the same names and units.
  */
object Metrics {
  val endToEnd: Vector[(String, String)] = Vector(
    "setup_s" -> "s", "step_ref_p50" -> "ref", "step_ref_p99" -> "ref", "steps_per_kref" -> "1/kref",
    "accuracy" -> "share", "heap_peak_mb" -> "MB",
  )

  val perLayer: Vector[(String, String)] = Vector(
    "core.gnn.train_s" -> "s", "core.gnn.train_s.max" -> "s", "core.gnn.samples" -> "count",
    "core.gnn.sample_epochs_per_s" -> "1/s",
    "core.pretrain.history_s" -> "s", "core.pretrain.history_runs" -> "count",
    "core.pretrain.phases_s" -> "s", "core.pretrain.unaccounted_share" -> "share",
    "core.ged.elbow_s" -> "s", "core.ged.kmeans_s" -> "s", "core.ged.k" -> "count",
    "core.ged.empty_clusters" -> "count", "core.features.to_sample_us" -> "us",
    "dataflow.simulator.run_us" -> "us", "core.labeler.label_us" -> "us",
    "core.mf.prob_calls" -> "count", "core.mf.prob_us" -> "us", "core.mf.prob_share" -> "share",
    "core.mf.probs_per_process" -> "count", "core.mf.fit_calls" -> "count", "core.mf.fit_ms" -> "ms",
    "core.mf.rows_per_fit" -> "count", "core.mf.threshold_reuse" -> "count",
    "core.mf.prob_s" -> "s", "core.mf.fit_s" -> "s",
    "core.tuner.process_s" -> "s", "core.tuner.self_s" -> "s", "core.tuner.session_init_ms" -> "ms",
    "core.pretrained.assign_ms" -> "ms", "core.warmup.rows" -> "count", "core.warmup.build_s" -> "s",
    "core.gnn.embed_us" -> "us",
    "baselines.ds2.process_us" -> "us", "baselines.conttune.process_us" -> "us",
    "baselines.rate_estimator_us" -> "us",
    "streamtune.bp_processes" -> "count", "streamtune.par_at_10wu" -> "count",
    "streamtune.reconfigs_per_process" -> "count",
    "ds2.bp_processes" -> "count", "ds2.par_at_10wu" -> "count", "ds2.reconfigs_per_process" -> "count",
    "conttune.bp_processes" -> "count", "conttune.par_at_10wu" -> "count",
    "conttune.reconfigs_per_process" -> "count",
    "trace.spans" -> "count", "trace.overhead_share" -> "share",
  )
}

/** State shared by one benchmark run. */
final class Ctx(
    val workload: String,
    val seed: Long,
    val seconds: Int,
    val traced: Boolean,
    stateDir: Path,
    buildId: String,
) {
  val threads: Int = Runtime.getRuntime.availableProcessors()
  val tracer     = new Tracer(traced)
  val violations = new Violations
  val rootSpan: Long = tracer.nextId()
  val startNs: Long  = System.nanoTime()

  var attempted = 0L
  var failed    = 0L
  private val values  = scala.collection.mutable.Map.empty[String, Double]
  private val quality = ArrayBuffer.empty[(String, String)]

  def put(name: String, value: Double): Unit = {
    require(Metrics.endToEnd.exists(_._1 == name) || Metrics.perLayer.exists(_._1 == name), name)
    values(name) = value
  }

  def log(msg: String): Unit = println(s"[pipebench] $msg")

  /** A deterministic result: it must read the same in every run of this
    * workload and seed, traced or not.
    */
  def recordQuality(name: String, value: Any): Unit = {
    quality += name -> value.toString
    log(s"quality $name = $value")
  }

  /** Run the set-up `reps` times, report the median as `setup_s` and check
    * that every repetition built the same inputs (compared by `digest`).
    */
  def setup[A](digest: A => Any, reps: Int = 3)(body: => A): A = {
    val times = ArrayBuffer.empty[Double]
    val results = (1 to reps).map { rep =>
      tracer.timed("setup", rootSpan, "rep" -> rep.toString) { _ =>
        val t0 = System.nanoTime()
        val r = body
        times += (System.nanoTime() - t0) / 1e9
        r
      }
    }
    val d = results.map(digest)
    violations.check(d.distinct.size == 1, s"set-up repetitions built different inputs")
    put("setup_s", Stats.median(times.toSeq))
    log(f"set-up x$reps: ${times.map(t => f"$t%.3f").mkString(", ")} s")
    resetHeap()
    results.last
  }

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def resetHeap(): Unit = {
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
  }

  def finish(): Int = {
    put("heap_peak_mb", heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0)
    if (traced) {
      tracer.record(Span(rootSpan, 0, "workload", startNs, System.nanoTime() - startNs, 0,
        Seq("workload" -> workload, "seed" -> seed.toString)))
      put("trace.spans", tracer.all.size.toDouble)
      tracer.write(stateDir.resolve(s"trace-$workload-seed$seed.jsonl.gz"))
    }
    checkAgainstEarlierRuns()
    val names = if (traced) Metrics.perLayer else Metrics.endToEnd
    names.foreach { case (n, _) => if (!values.contains(n)) values(n) = 0.0 }
    violations.messages.foreach(m => log(s"VIOLATION $m"))
    val correct = violations.total == 0
    val metrics = names.map { case (n, u) =>
      s"${Json.str(n)}: {\"value\": ${Json.num(values(n))}, \"unit\": ${Json.str(u)}}"
    }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$metrics}}""")
    if (correct) 0 else 1
  }

  /** Compare this run's deterministic results with the record left by an
    * earlier run of the same build, workload and seed.
    */
  private def checkAgainstEarlierRuns(): Unit = {
    val file = stateDir.resolve(s"quality-$workload-seed$seed.txt")
    val body = (s"build $buildId" +: quality.map { case (k, v) => s"$k=$v" }.toVector).mkString("\n")
    if (Files.exists(file)) {
      val old = new String(Files.readAllBytes(file), UTF_8)
      if (old.linesIterator.nextOption() == Some(s"build $buildId")) {
        violations.check(old == body, s"deterministic results differ from an earlier run with seed $seed:\n$old\nvs\n$body")
        return
      }
    }
    Files.createDirectories(stateDir)
    Files.write(file, body.getBytes(UTF_8))
  }
}

object Main {
  private def usage(msg: String): Nothing = {
    System.err.println(s"pipebench: $msg")
    System.err.println("usage: Main --workload pretrain|tune-streamtune|tune-ratebased --seed N --seconds S " +
      "--trace 0|1 --state-dir DIR --build-id ID")
    sys.exit(2)
  }

  def main(argv: Array[String]): Unit = {
    if (argv.length % 2 != 0) usage("arguments come in --name value pairs")
    val kv = argv.grouped(2).map(a => a(0) -> a(1)).toMap
    def arg(k: String) = kv.getOrElse(k, usage(s"missing $k"))
    def num(k: String) = arg(k).toLongOption.getOrElse(usage(s"$k must be a whole number"))
    val trace = arg("--trace") match {
      case "0" => false
      case "1" => true
      case _   => usage("--trace must be 0 or 1")
    }
    val seconds = num("--seconds")
    if (seconds < 1) usage("--seconds must be at least 1")
    val ctx = new Ctx(arg("--workload"), num("--seed"), seconds.toInt, trace,
      Paths.get(arg("--state-dir")), arg("--build-id"))
    ctx.log(s"workload ${ctx.workload}, seed ${ctx.seed}, ${ctx.seconds} s, trace $trace, " +
      s"nproc ${ctx.threads}, build ${arg("--build-id")}")
    ctx.workload match {
      case "pretrain"        => PretrainBench.run(ctx)
      case "tune-streamtune" => TuneBench.run(ctx, streamTune = true)
      case "tune-ratebased"  => TuneBench.run(ctx, streamTune = false)
      case other             => usage(s"unknown workload $other")
    }
    sys.exit(ctx.finish())
  }
}

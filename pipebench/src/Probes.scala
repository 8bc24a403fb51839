package repro.pipebench

import repro.core._
import repro.dataflow._
import repro.workloads.Workload
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._

/** Correctness violations found anywhere in a run. Any violation makes the
  * run incorrect; they never count toward the tuning-quality figures.
  */
final class Violations {
  private val count = new AtomicLong(0)
  private val first = new ConcurrentLinkedQueue[String]()

  def add(msg: String): Unit =
    if (count.incrementAndGet() <= 20) first.add(msg)

  def check(cond: Boolean, msg: => String): Unit = if (!cond) add(msg)

  def total: Long = count.get()
  def messages: Vector[String] = first.asScala.toVector
}

/** Wraps a [[FineTuneModel]] without changing what it computes: `monotonic`,
  * `name` and every embedding array pass straight through, so an
  * identity-keyed threshold cache inside the model behaves exactly as
  * unwrapped.
  *
  * It counts calls (and, when traced, times them), tracks the distinct
  * embedding arrays queried per fit, and checks that each fitted model is
  * non-increasing in p over [1, pMax] on exactly those embeddings. The check
  * runs before each refit and after each process; its time is excluded from
  * the process time.
  */
final class TimedModel(inner: FineTuneModel, pMax: Int, traced: Boolean, violations: Violations)
    extends FineTuneModel {
  override def monotonic: Boolean = inner.monotonic
  override def name: String = inner.name

  // Accumulators, read and reset by the owning session around each process.
  private var probCalls = 0L; private var probNs = 0L
  private var fitCalls = 0L; private var fitNs = 0L; private var fitRows = 0L
  private var distinct = 0L
  var checkNs = 0L

  private val pending = new java.util.IdentityHashMap[Array[Double], java.lang.Boolean]()

  def counts: MfCounts = MfCounts(probCalls, probNs, fitCalls, fitNs, fitRows, distinct)

  def resetCounters(): Unit = {
    probCalls = 0; probNs = 0; fitCalls = 0; fitNs = 0; fitRows = 0; distinct = 0; checkNs = 0
  }

  /** Check monotonicity of the current fit on the embeddings seen since the
    * last check.
    */
  def checkPending(): Unit = {
    val t0 = System.nanoTime()
    if (inner.monotonic) pending.keySet.asScala.foreach { h =>
      var prev = inner.bottleneckProb(h, 1)
      var p = 2
      while (p <= pMax) {
        val cur = inner.bottleneckProb(h, p)
        if (cur > prev + 1e-12) {
          violations.add(s"${inner.name}: M_f increases in p at p=$p ($prev -> $cur)")
          p = pMax
        }
        prev = cur
        p += 1
      }
    }
    distinct += pending.size
    pending.clear()
    checkNs += System.nanoTime() - t0
  }

  override def fit(rows: IndexedSeq[TrainRow]): Unit = {
    checkPending()
    fitCalls += 1
    fitRows += rows.size
    if (traced) {
      val t0 = System.nanoTime()
      inner.fit(rows)
      fitNs += System.nanoTime() - t0
    } else inner.fit(rows)
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    probCalls += 1
    pending.put(h, java.lang.Boolean.TRUE)
    if (traced) {
      val t0 = System.nanoTime()
      val r  = inner.bottleneckProb(h, p)
      probNs += System.nanoTime() - t0
      r
    } else inner.bottleneckProb(h, p)
  }
}

/** M_f work: calls and (traced) time of `bottleneckProb` and `fit`, rows
  * fitted, and distinct embedding arrays queried per fit.
  */
final case class MfCounts(
    probCalls: Long, probNs: Long, fitCalls: Long, fitNs: Long, fitRows: Long, distinct: Long)

object MfCounts {
  val zero = MfCounts(0, 0, 0, 0, 0, 0)
}

/** What one `tuneProcess` call cost, and the reference clock of the thread
  * that ran it.
  */
final case class ProcessRecord(
    method: String, startNs: Long, ns: Long, mf: MfCounts, threw: Boolean, clock: Reference.Clock) {
  /** The call's time in refs. */
  def refs: Double = ns / clock.refNs(startNs)
}

/** Wraps a [[TuningSession]]: times every `tuneProcess` call and gates its
  * result. A call that throws is recorded and answered with the unchanged
  * configuration, counted as backpressured.
  */
final class TimedSession(
    inner: TuningSession,
    workload: Workload,
    mode: SimMode,
    val model: Option[TimedModel],
    val initNs: Long,
    tracer: Tracer,
    val sessionSpan: Long,
    violations: Violations,
    keepRuns: Boolean,
) extends TuningSession {
  override def methodName: String = inner.methodName
  def job: String = workload.key
  private val pMax = TuningSession.maxParallelism(mode)
  /** M_f work done while the session was built (its first fit). */
  val initMf: MfCounts = model.fold(MfCounts.zero)(_.counts)
  val records = Vector.newBuilder[ProcessRecord]
  /** When the last `tuneProcess` call returned. */
  var lastEndNs = 0L
  val finalRuns = Vector.newBuilder[RunResult]

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    model.foreach(_.resetCounters())
    val clock = Reference.clock
    val start = System.nanoTime()
    val out =
      try Right(inner.tuneProcess(multiplier, current))
      catch { case e: Exception => Left(e) }
    val end = System.nanoTime()
    lastEndNs = end
    clock.tick()
    val excluded = model.fold(0L)(_.checkNs)
    model.foreach(_.checkPending())
    val mf = model.fold(MfCounts.zero)(_.counts)
    val rec = ProcessRecord(methodName, start, end - start - excluded, mf, out.isLeft, clock)
    records += rec
    if (tracer.enabled) {
      val id = tracer.nextId()
      tracer.record(Span(id, sessionSpan, "tuner.process", start, rec.ns, 0, Nil))
      if (model.nonEmpty) {
        tracer.record(Span(tracer.nextId(), id, "mf.fit", start, mf.fitNs, mf.fitCalls, Nil))
        tracer.record(Span(tracer.nextId(), id, "mf.prob", start, mf.probNs, mf.probCalls, Nil))
      }
    }
    out match {
      case Right(res) =>
        gate(multiplier, res)
        if (keepRuns) finalRuns += res.finalRun
        res
      case Left(e) =>
        val run = Simulator.run(workload.dag, workload.rates(multiplier, mode), current, mode)
        System.err.println(s"[pipebench] ${workload.key} $methodName threw: $e")
        ProcessResult(current, 0, 1, run)
    }
  }

  private def gate(multiplier: Double, res: ProcessResult): Unit = {
    val dag = workload.dag
    val where = s"${workload.key} $methodName x$multiplier"
    val par = res.parallelisms
    violations.check(par.keySet == dag.ops.map(_.id).toSet, s"$where: parallelisms cover ${par.keySet}")
    dag.ops.foreach { op =>
      val p = par.getOrElse(op.id, 0)
      if (op.opType == OpType.Source) violations.check(p == 1, s"$where: source ${op.id} at p=$p")
      else violations.check(p >= 1 && p <= pMax, s"$where: ${op.id} at p=$p outside [1, $pMax]")
    }
    violations.check(res.finalRun.parallelisms == par, s"$where: final run deployed another configuration")
    violations.check(res.finalRun.sourceRates == workload.rates(multiplier, mode),
      s"$where: final run at other source rates")
    val bp = if (res.finalRun.jobBackpressure) 1 else 0
    violations.check(res.backpressureAtEnd == bp, s"$where: backpressureAtEnd=${res.backpressureAtEnd}, run says $bp")
    if (par.values.forall(_ >= 1)) {
      val rerun = Simulator.run(dag, workload.rates(multiplier, mode), par, mode)
      violations.check(rerun.jobBackpressure == res.finalRun.jobBackpressure,
        s"$where: re-running the settled configuration gives backpressure=${rerun.jobBackpressure}")
    }
  }
}

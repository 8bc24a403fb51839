package repro.pipebench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._

/** One recorded span. `durNs` of an aggregated span (`calls > 0`) is the sum
  * of its calls' durations, not the length of one interval; aggregated spans
  * are children that ran strictly inside their parent's interval.
  */
final case class Span(
    id: Long,
    parent: Long,
    name: String,
    startNs: Long,
    durNs: Long,
    calls: Long,
    attrs: Seq[(String, String)],
)

/** In-memory span store. Spans stay in memory while the benchmark runs and
  * are written out as gzipped JSON lines when it ends. Disabled tracers record
  * nothing and hand out id 0.
  */
final class Tracer(val enabled: Boolean) {
  private val ids   = new AtomicLong(0)
  private val spans = new ConcurrentLinkedQueue[Span]()

  def nextId(): Long = if (enabled) ids.incrementAndGet() else 0L

  def record(s: Span): Unit = if (enabled) spans.add(s)

  /** Record an interval span with a fresh id; returns the id. */
  def span(name: String, parent: Long, startNs: Long, endNs: Long, attrs: (String, String)*): Long = {
    val id = nextId()
    record(Span(id, parent, name, startNs, endNs - startNs, 0, attrs))
    id
  }

  /** Time `body` as a child span of `parent`. */
  def timed[A](name: String, parent: Long, attrs: (String, String)*)(body: Long => A): A = {
    val id = nextId()
    val t0 = System.nanoTime()
    val r  = body(id)
    record(Span(id, parent, name, t0, System.nanoTime() - t0, 0, attrs))
    r
  }

  def all: Vector[Span] = spans.asScala.toVector

  /** Self time of every span: its duration minus its children's. */
  def selfNs: Map[Long, Long] = {
    val v = all
    val childNs = v.groupMapReduce(_.parent)(_.durNs)(_ + _)
    v.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = new java.io.BufferedWriter(new java.io.OutputStreamWriter(
      new java.util.zip.GZIPOutputStream(java.nio.file.Files.newOutputStream(path)), "UTF-8"))
    try all.sortBy(_.id).foreach { s =>
      val attrs = s.attrs.map { case (k, v) => s"${Json.str(k)}:${Json.str(v)}" }.mkString(",")
      w.write(
        s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},""" +
          s""""start_ns":${s.startNs},"dur_ns":${s.durNs},"calls":${s.calls},"attrs":{$attrs}}""")
      w.newLine()
    } finally w.close()
  }
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) throw new IllegalArgumentException(s"non-finite metric $d")
    else d.toString
}

/** Order statistics over timing samples. */
object Stats {
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(s.size - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

package repro.pipebench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable.ArrayBuffer

/** The unit every step time is reported in.
  *
  * One `ref` is the time a fixed dense floating-point kernel (a 96×96 matrix
  * product, about 0.4 ms on an idle core) takes on the same thread, measured
  * next to the step. On a shared host the speed of the same code moves by up
  * to 2x in phases of seconds to minutes; dividing a step's time by the
  * kernel's time at that moment cancels the host's speed and keeps the
  * program's cost. The kernel is the benchmark's own code, so a change to the
  * program moves the step and not the unit.
  */
object Reference {
  private val n = 96
  /** Sampled at most this often per thread while steps run. */
  private val intervalNs = 20000000L
  /** Each step is divided by the median of this many samples nearest in time. */
  private val window = 9

  /** One thread's kernel timings: when each ran and how long it took. */
  final class Clock {
    private val a = Array.tabulate(n * n)(i => (i % 7) * 0.01)
    private val b = Array.tabulate(n * n)(i => (i % 11) * 0.01)
    private val c = new Array[Double](n * n)
    private val at  = ArrayBuffer.empty[Long]
    private val dur = ArrayBuffer.empty[Long]
    var sink = 0.0

    /** Run the kernel once and record its time. */
    def sample(): Unit = {
      java.util.Arrays.fill(c, 0.0)
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) {
        var k = 0
        while (k < n) {
          val v = a(i * n + k)
          var j = 0
          while (j < n) { c(i * n + j) += v * b(k * n + j); j += 1 }
          k += 1
        }
        i += 1
      }
      val t1 = System.nanoTime()
      sink += c(n + 1)
      at += t0
      dur += t1 - t0
    }

    /** Sample unless this thread sampled less than `intervalNs` ago. */
    def tick(): Unit = if (at.isEmpty || System.nanoTime() - at.last >= intervalNs) sample()

    def reset(): Unit = { at.clear(); dur.clear() }

    /** The kernel's time around `t`: the median of the samples nearest to it. */
    def refNs(t: Long): Double = {
      require(at.nonEmpty, "no reference samples on this thread")
      var lo = 0
      var hi = at.size
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (at(mid) < t) lo = mid + 1 else hi = mid
      }
      val until = math.min(at.size, math.max(lo - window / 2, 0) + window)
      val from  = math.max(0, until - window)
      Stats.median((from until until).map(dur(_).toDouble))
    }

    def minNs: Long = if (dur.isEmpty) Long.MaxValue else dur.min
  }

  private val clocks = new ConcurrentLinkedQueue[Clock]()
  private val local = ThreadLocal.withInitial[Clock] { () =>
    val c = new Clock
    clocks.add(c)
    // Untimed runs, so the first recorded samples are of compiled code.
    (1 to 20).foreach(_ => c.sample())
    c.reset()
    c
  }

  /** The calling thread's clock. */
  def clock: Clock = local.get()

  /** The fastest sample on any thread, for the log. */
  def fastestNs: Long = {
    var best = Long.MaxValue
    clocks.forEach(c => best = math.min(best, c.minNs))
    best
  }
}

package repro.core

import java.util.concurrent.{Executors, ThreadFactory}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** The process-wide pool behind every concurrent phase (cluster encoders in
  * [[Pretrain.pretrain]], sessions in `Evaluation.evaluate`).
  *
  * A cached pool of daemon threads: an idle JVM still exits, and threads are
  * reused across calls instead of started and shut down per call. The pool
  * itself is unbounded, so a caller bounds its own concurrency by how many
  * workers it submits, and nested use cannot deadlock.
  */
object Workers {

  private val pool = Executors.newCachedThreadPool(new ThreadFactory {
    private val made = new AtomicInteger(0)
    override def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"repro-worker-${made.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
  })

  /** `f` over `items` by at most `workers` pool threads, each pulling the
    * next item in order; results come back in item order. The first failure
    * stops further items from starting and is rethrown once every worker
    * has returned.
    */
  def map[A, B](items: IndexedSeq[A], workers: Int)(f: A => B): Vector[B] = {
    require(workers >= 1, s"workers=$workers")
    val out     = new Array[Any](items.size)
    val next    = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable](null)
    val futures = (0 until math.min(workers, items.size)).map { _ =>
      pool.submit(new Runnable {
        override def run(): Unit = {
          var i = next.getAndIncrement()
          while (i < items.size && failure.get == null) {
            try out(i) = f(items(i))
            catch { case e: Throwable => failure.compareAndSet(null, e) }
            i = next.getAndIncrement()
          }
        }
      })
    }
    // Future.get orders every worker's writes to `out` before the reads below.
    futures.foreach(_.get())
    if (failure.get != null) throw failure.get
    out.toVector.asInstanceOf[Vector[B]]
  }
}

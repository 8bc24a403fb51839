package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Properties}
import repro.dataflow.DetRandom

object MonotonicFixtures {
  val dim = 6

  def h(seed: Int): Array[Double] =
    Array.tabulate(dim)(j => DetRandom.unit("h", seed, j))

  /** Rows for a clean threshold t(h) = 5 + 40 * h(0). */
  def rows(n: Int, seed: Int = 1): IndexedSeq[TrainRow] =
    (0 until n).map { i =>
      val hv = h(seed * 10000 + i % 25) // 25 distinct embeddings
      val p = 1 + (DetRandom.unit("p", seed, i) * 99).toInt
      val thr = 5 + 40 * hv(0)
      TrainRow(hv, p, if (p < thr) 1 else 0)
    }

  /** The SVM threshold as computed before `fit` ordered the support set by
    * p: a full sort of the distances for the k-th neighbour and a boxed
    * sort of the rows by p on every call. The body is kept verbatim as the
    * oracle the single-pass threshold must match bit for bit.
    */
  def referenceThreshold(rows: Array[TrainRow], embedDim: Int, h: Array[Double]): Double = {
    val kNeighbors = 16
    if (rows.isEmpty) return -0.5
    val n = rows.length
    val d2 = new Array[Double](n)
    var i = 0
    while (i < n) {
      var s = 0.0; val hi = rows(i).h; var j = 0
      while (j < embedDim) { val d = h(j) - hi(j); s += d * d; j += 1 }
      d2(i) = s
      i += 1
    }
    // Adaptive RBF bandwidth: squared distance to the k-th nearest row.
    val k = math.min(kNeighbors, n - 1)
    val sorted = d2.clone()
    java.util.Arrays.sort(sorted)
    val sigma2 = math.max(1e-9, sorted(math.max(0, k - 1)))
    val w = Array.tabulate(n)(i => math.exp(-d2(i) / (2.0 * sigma2)))

    // Sweep the cut over sorted log-parallelism values; minimize weighted
    // misclassification. label=1 at p_i wants t > pNorm(p_i); label=0 wants
    // t <= pNorm(p_i).
    val order = (0 until n).sortBy(i => rows(i).p).toArray
    var err = order.iterator.filter(i => rows(i).label == 1).map(w).sum // t = -inf
    var bestErr = err
    var bestT = -0.5
    var idx = 0
    while (idx < order.length) {
      val p = rows(order(idx)).p
      // Move the cut just above parallelism p (flip all rows at this p).
      while (idx < order.length && rows(order(idx)).p == p) {
        val i2 = order(idx)
        if (rows(i2).label == 1) err -= w(i2) else err += w(i2)
        idx += 1
      }
      if (err < bestErr - 1e-12) {
        bestErr = err
        bestT =
          if (idx >= order.length) Features.pNorm(p) + 0.15 // beyond all data
          else (Features.pNorm(p) + Features.pNorm(rows(order(idx)).p)) / 2.0
      }
    }
    bestT
  }

  /** Bit-exact thresholds of `m` on every query embedding. */
  def thresholdBits(m: MonotonicSvm, queries: Seq[Array[Double]]): Seq[Long] =
    queries.map(q => java.lang.Double.doubleToLongBits(m.threshold(q)))
}

class MonotonicSpec extends AnyFunSuite {
  import MonotonicFixtures._

  private def fitted(model: FineTuneModel): FineTuneModel = {
    model.fit(rows(4000))
    model
  }

  test("SVM recovers thresholds within a small margin") {
    val m = fitted(new MonotonicSvm(dim))
    // Query the trained anchor embeddings (seed 1 -> h(10000 + i)).
    (0 until 20).foreach { s =>
      val hv = h(10000 + s)
      val trueThr = 5 + 40 * hv(0)
      val got = FineTuneModel.minSafeParallelism(m, hv, 100)
      assert(math.abs(got - trueThr) <= math.max(3.0, trueThr * 0.35),
        s"svm=$got true=$trueThr")
    }
  }

  test("XGBoost recovers thresholds within a small margin") {
    val m = fitted(new MonotonicGbt(dim))
    (0 until 10).foreach { s =>
      val hv = h(10000 + s)
      val trueThr = 5 + 40 * hv(0)
      val got = FineTuneModel.minSafeParallelism(m, hv, 100)
      assert(math.abs(got - trueThr) <= math.max(5.0, trueThr * 0.5),
        s"gbt=$got true=$trueThr")
    }
  }

  test("SVM probability is non-increasing in parallelism everywhere") {
    val m = fitted(new MonotonicSvm(dim))
    (0 until 30).foreach { s =>
      val hv = h(s)
      (1 until 100).foreach { p =>
        assert(m.bottleneckProb(hv, p + 1) <= m.bottleneckProb(hv, p) + 1e-12)
      }
    }
  }

  test("XGBoost probability is non-increasing in parallelism everywhere") {
    val m = fitted(new MonotonicGbt(dim))
    (0 until 30).foreach { s =>
      val hv = h(s)
      (1 until 100).foreach { p =>
        assert(m.bottleneckProb(hv, p + 1) <= m.bottleneckProb(hv, p) + 1e-9,
          s"violation at seed=$s p=$p")
      }
    }
  }

  test("GBT on inverted labels stays non-increasing in p") {
    // Adversarial labels: bottleneck at high p only — impossible under the
    // constraint, which must refuse to invert.
    val hv = h(3)
    val bad = (0 until 400).map { i =>
      val p = 1 + (DetRandom.unit("bp", i) * 99).toInt
      TrainRow(hv, p, if (p > 50) 1 else 0)
    }
    val mono = new MonotonicGbt(dim)
    mono.fit(bad)
    (1 until 100).foreach { p =>
      assert(mono.bottleneckProb(hv, p + 1) <= mono.bottleneckProb(hv, p) + 1e-9)
    }
  }

  test("binary search returns the first safe parallelism under monotonicity") {
    val m = fitted(new MonotonicSvm(dim))
    (0 until 15).foreach { s =>
      val hv = h(s)
      val got = FineTuneModel.minSafeParallelism(m, hv, 100)
      // Exhaustive scan agrees with the binary search.
      val scan = (1 to 100).find(p => m.bottleneckProb(hv, p) < FineTuneModel.safeProb).getOrElse(100)
      assert(got == scan)
    }
  }

  test("minSafeParallelism returns pMax when nothing is safe") {
    val m = new MonotonicSvm(dim)
    m.fit((0 until 100).map(i => TrainRow(h(1), 1 + i % 100, 1))) // all bottleneck
    assert(FineTuneModel.minSafeParallelism(m, h(1), 100) == 100)
  }

  test("empty fit predicts safe everywhere (threshold below 1)") {
    val m = new MonotonicSvm(dim)
    m.fit(IndexedSeq.empty)
    assert(FineTuneModel.minSafeParallelism(m, h(2), 100) == 1)
  }

  test("SVM threshold cache is invalidated by refits") {
    val m = new MonotonicSvm(dim)
    val hv = h(4)
    m.fit((0 until 50).map(i => TrainRow(hv, 1 + i % 100, 0)))
    val before = m.threshold(hv)
    m.fit((0 until 50).map(i => TrainRow(hv, 1 + i % 100, 1)))
    assert(m.threshold(hv) != before)
  }

  test("SVM thresholds match the sort-based reference bit for bit") {
    // Row sets of every size around the k-neighbour clamp, with p drawn
    // from a narrow range (heavy ties) or a wide one, embeddings drawn from
    // a pool of 1, 2 or n entries (duplicates, some holding a NaN), and all
    // labels positive, all negative or mixed.
    val genCoord = Gen.frequency(30 -> Gen.choose(0.0, 1.0), 1 -> Gen.const(Double.NaN))
    val genEmb = Gen.frequency(
      20 -> Gen.listOfN(dim, Gen.choose(0.0, 1.0)).map(_.toArray),
      1  -> Gen.listOfN(dim, genCoord).map(_.toArray))
    def genCase(n: Int, label: Gen[Int]): Gen[(Array[TrainRow], Seq[Array[Double]])] =
      for {
        poolSize <- Gen.oneOf(1, 2, n)
        pool     <- Gen.listOfN(poolSize, genEmb)
        pHi      <- Gen.oneOf(2, 3, 100)
        picks    <- Gen.listOfN(n, Gen.choose(0, poolSize - 1))
        ps       <- Gen.listOfN(n, Gen.choose(1, pHi))
        labels   <- Gen.listOfN(n, label)
        fresh    <- Gen.listOfN(3, genEmb)
      } yield {
        val rs = picks.lazyZip(ps).lazyZip(labels).map((e, p, l) => TrainRow(pool(e), p, l)).toArray
        (rs, pool.take(3) ++ fresh)
      }
    val labelings = Seq("all positive" -> Gen.const(1), "all negative" -> Gen.const(0),
      "mixed" -> Gen.oneOf(0, 1))
    for (n <- Seq(1, 2, 16, 17, 500); (labelName, label) <- labelings) {
      val prop = Prop.forAll(genCase(n, label)) { case (rs, queries) =>
        val m = new MonotonicSvm(dim)
        m.fit(rs.toIndexedSeq)
        val want = queries.map(q => java.lang.Double.doubleToLongBits(referenceThreshold(rs, dim, q)))
        thresholdBits(m, queries) == want
      }
      val result = org.scalacheck.Test.check(
        org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(40), prop)
      assert(result.passed, s"n=$n, $labelName: ${org.scalacheck.util.Pretty.pretty(result)}")
    }
    // A NaN distance among the first k rows by p sorts after every number,
    // so the bandwidth still comes from the finite distances.
    val nanRows = (1 to 17).map { p =>
      TrainRow(if (p == 16) Array.fill(dim)(Double.NaN) else h(500 + p), p, if (p <= 8) 1 else 0)
    }
    val m = new MonotonicSvm(dim)
    m.fit(nanRows)
    val want = referenceThreshold(nanRows.toArray, dim, h(700))
    assert(want > 0.0)
    assert(thresholdBits(m, Seq(h(700))) == Seq(java.lang.Double.doubleToLongBits(want)))
  }

  test("SVM refits on fewer rows answer as a freshly fitted model") {
    val queries = (0 until 25).map(i => h(10000 + i)) ++ (0 until 5).map(h)
    val big   = rows(500)
    val small = rows(40, seed = 3)
    val grown = small ++ rows(25, seed = 4)
    val reused = new MonotonicSvm(dim)
    for (data <- Seq(big, small, grown)) {
      reused.fit(data)
      val fresh = new MonotonicSvm(dim)
      fresh.fit(data)
      assert(thresholdBits(reused, queries) == thresholdBits(fresh, queries), s"after a refit on ${data.size} rows")
    }
  }

  test("SVM thresholds match the reference across refits that share, drop and renumber points") {
    // A session-shaped history: warm-up rows, then feedback rows appended
    // after every refit on the queried arrays and on earlier rows' arrays,
    // fitted through the session's cap (the most recent rows plus earlier
    // positives). The pool holds NaN embeddings and duplicates both by
    // identity (one array in many rows) and by content (equal copies).
    val rng = new scala.util.Random(11)
    val nan = Array.fill(dim)(Double.NaN)
    def label(hv: Array[Double], p: Int): Int = if (p < 5 + 40 * hv(0)) 1 else 0
    def row(hv: Array[Double]): TrainRow = { val p = 1 + rng.nextInt(99); TrainRow(hv, p, label(hv, p)) }
    val warm = (0 until 2000).map(i => if (i % 400 == 7) nan.clone() else h(20000 + i))
    val copies = (0 until 50).map(i => warm(i * 3).clone())
    val tData = scala.collection.mutable.ArrayBuffer[TrainRow]()
    tData ++= (warm ++ copies).map(row)
    val fitCap = 2400
    def fitRows: IndexedSeq[TrainRow] =
      if (tData.size <= fitCap) tData.toIndexedSeq
      else {
        val recent = tData.takeRight(fitCap * 3 / 4)
        val earlierPos = tData.dropRight(fitCap * 3 / 4).filter(_.label == 1).takeRight(fitCap / 4)
        (earlierPos ++ recent).toIndexedSeq
      }
    val kept = (0 until 20).map(i => h(30000 + i)) ++ Seq(warm(0), warm(7), copies(0), nan)
    val m = new MonotonicSvm(dim)
    var queried = 0L
    // The distances held, after every query: never above the budget, and
    // falling when the records are dropped and the points renumbered.
    var held = 0L
    var drops = 0
    def tracked(queries: Seq[Array[Double]]): Seq[Long] = queries.map { q =>
      val bits = java.lang.Double.doubleToLongBits(m.threshold(q))
      assert(m.memoSize > 0 && m.memoSize <= MonotonicSvm.memoBudget, s"${m.memoSize} distances held")
      if (m.memoSize < held) drops += 1
      held = m.memoSize
      bits
    }
    for (step <- 0 until 8) {
      val data = fitRows
      m.fit(data)
      val queries = kept ++ (0 until 100).map(i => h(40000 + step * 1000 + i))
      queried += queries.size
      val want = queries.map(q => java.lang.Double.doubleToLongBits(referenceThreshold(data.toArray, dim, q)))
      assert(tracked(queries) == want, s"step $step, ${data.size} rows")
      // Asked again before the next refit, the records answer the same.
      assert(tracked(queries.reverse) == want.reverse, s"step $step, repeated")
      tData ++= (0 until 200).map(i => row(if (i % 2 == 0) queries(i % queries.size) else tData(rng.nextInt(tData.size)).h))
    }
    assert(tData.size > fitCap + 1000, "the cap must drop rows")
    // Every query record spans at least the warm-up's distinct arrays plus
    // the growth slack, so the records cross the budget at least once.
    assert(queried * (warm.size + copies.size + 256) > 2 * MonotonicSvm.memoBudget)
    assert(drops > 0, "the records never crossed the budget")
  }

  test("SVM near-path thresholds match the reference across refits, drops, NaN arrivals and renumbering") {
    // Every queried array has an inner shell of support points (squared
    // distance about 6e-8), an outer one (about 5.4e-7) and no background
    // point within R of the outer shell's bandwidth. 27 refits; each step
    // says which path it drives.
    val rng = new scala.util.Random(5)
    def row(hv: Array[Double]): TrainRow = {
      val p = 1 + rng.nextInt(99)
      TrainRow(hv, p, if (p < 5 + 40 * hv(0)) 1 else 0)
    }
    def shell(c: Array[Double], r: Double): Array[Double] = c.map(x => if (rng.nextBoolean()) x + r else x - r)
    val kept = (0 until 8).map(i => h(50000 + i))
    val background = (0 until 1000).map(i => row(h(60000 + i)))
    val inner = kept.flatMap(q => (0 until 20).map(_ => row(shell(q, 1e-4))))
    val outer = kept.flatMap(q => (0 until 40).map(_ => row(shell(q, 3e-4))))
    val own = scala.collection.mutable.ArrayBuffer[TrainRow]()
    val m = new MonotonicSvm(dim)
    import MonotonicSvm.{RefusedFew, RefusedNan, RefusedReach}
    // Per step, the thresholds taken on the near path or as a first pass
    // under a pivot bound, and the near path's refusals (NaN point, few near
    // rows, reach); each query is asked twice, and the second answer comes
    // from its record.
    def counts: Seq[Long] =
      m.nearThresholds +: Seq(RefusedNan, RefusedFew, RefusedReach).map(m.refusals)
    val q = kept.size.toLong
    val nearPath = Seq(q, 0L, 0L, 0L)
    var held = 0L
    var drops = 0
    def step(s: Int, data: IndexedSeq[TrainRow], extra: Seq[Array[Double]] = Nil): Seq[Long] = {
      val before = counts
      m.fit(data)
      val queries = kept ++ extra
      val want = queries.map(q => java.lang.Double.doubleToLongBits(referenceThreshold(data.toArray, dim, q)))
      for (order <- Seq(queries.indices, queries.indices.reverse)) {
        val got = order.map { i =>
          val bits = java.lang.Double.doubleToLongBits(m.threshold(queries(i)))
          if (m.memoSize < held) drops += 1
          held = m.memoSize
          bits
        }
        assert(got == order.map(want), s"step $s, ${data.size} rows")
      }
      counts.lazyZip(before).map(_ - _)
    }
    // Step 0: first thresholds; R comes from the inner shell. The first
    // query has no pivot; each later one takes an earlier one as its pivot.
    assert(step(0, background ++ outer ++ inner) == Seq(q - 1, 0L, 0L, 0L))
    // Steps 1-9: a row at every queried array and a new point inside R per
    // query and step; a NaN embedding arrives at step 4, after the records,
    // and each query takes a first pass again under a pivot bound.
    for (s <- 1 to 9) {
      own ++= kept.flatMap(q => Seq(row(q), row(shell(q, 1e-4))))
      val nan = if (s == 4) Seq(row(Array.fill(dim)(Double.NaN))) else Nil
      assert(step(s, background ++ outer ++ inner ++ own ++ nan) ==
        (if (s == 4) Seq(q, q, 0L, 0L) else nearPath), s"step $s")
    }
    // Step 10: a cap drops the inner shell and the rows at the queried
    // arrays, so the bandwidth grows past R; the outer shell is still near,
    // and still near the pivots, so every first pass takes a pivot bound.
    assert(step(10, background ++ outer) == Seq(q, 0L, 0L, q))
    // Steps 11-20: rows at the queried arrays again, 2 per step.
    own.clear()
    for (s <- 11 to 20) {
      own ++= kept.flatMap(q => Seq(row(q), row(q)))
      assert(step(s, background ++ outer ++ own) == nearPath, s"step $s")
    }
    // Step 21: only the background is left; no near point has a row. A
    // pivot whose near points have no rows gives no bound, so a query takes
    // a full pass unless its nearest record has already taken one in this
    // step (3 queries); the wide bandwidth puts every point within R.
    assert(step(21, background) == Seq(3L, 0L, q, 0L))
    // Step 22: the near points hold every row, and the near path takes them
    // all. 600 more query arrays take the records past the budget, so the
    // points are renumbered and the kept queries' records rebuilt. Every
    // first pass but the one after each renumbering has a pivot.
    own.clear()
    assert(step(22, background ++ outer, extra = (0 until 600).map(i => h(70000 + i))) == Seq(1184L, 0L, 0L, 0L))
    assert(drops > 0, "the records never crossed the budget")
    for (s <- 23 to 26) {
      own ++= kept.map(row)
      assert(step(s, background ++ outer ++ own) == nearPath, s"step $s")
    }
  }

  test("SVM first thresholds under a pivot bound match the reference") {
    // A tight cluster of support points at (0.1, ..., 0.1) and, at least
    // 0.4 away in every coordinate, a background and three more clusters;
    // two arrays hold a NaN. Each query says whether it has a pivot (a
    // threshold counted without a distance to every point) and how many
    // points its bound puts beyond R without a distance.
    val rng = new scala.util.Random(13)
    def row(hv: Array[Double]): TrainRow = {
      val p = 1 + rng.nextInt(99)
      TrainRow(hv, p, if (p < 5 + 40 * hv(0)) 1 else 0)
    }
    def near(c: Array[Double], r: Double): Array[Double] = c.map(_ + r * (2 * rng.nextDouble() - 1))
    def far(seed: Int): Array[Double] = h(seed).map(0.5 + 0.5 * _)
    val c0 = Array.fill(dim)(0.1)
    val cluster = (0 until 30).map(_ => row(near(c0, 1e-3)))
    val others = (0 until 3).flatMap(i => (0 until 30).map(_ => row(near(far(80000 + i), 1e-3))))
    val background = (0 until 3000).map(i => row(far(81000 + i)))
    val nan = Array.fill(dim)(Double.NaN)
    val farPoints = (others ++ background).size.toLong
    var data: IndexedSeq[TrainRow] =
      background ++ cluster ++ others ++ Seq(row(nan), row(nan), row(far(82000).updated(2, Double.NaN)))
    val m = new MonotonicSvm(dim)
    m.fit(data)
    def ask(q: Array[Double]): (Long, Long) = {
      val (hits, marks) = (m.nearThresholds, m.markedBeyond)
      val want = java.lang.Double.doubleToLongBits(referenceThreshold(data.toArray, dim, q))
      assert(java.lang.Double.doubleToLongBits(m.threshold(q)) == want)
      (m.nearThresholds - hits, m.markedBeyond - marks)
    }
    // No record yet: a full pass, which holds every distance.
    val corner = c0.map(_ + 2e-3)
    assert(ask(corner) == ((0L, 0L)))
    // Its pivot is the first query; the stored distances put every far
    // point beyond R.
    assert(ask(c0.map(_ + 1e-3)) == ((1L, farPoints)))
    // The centre: its pivot is the second query, whose record holds only
    // lower bounds for the far points, and they put them beyond R again.
    assert(ask(c0) == ((1L, farPoints)))
    // delta = 0: an equal copy of the full pass's query, and of a query
    // whose record holds bounds.
    assert(ask(corner.clone()) == ((1L, farPoints)))
    assert(ask(c0.clone()) == ((1L, farPoints)))
    // A far query: the bound prunes nothing.
    assert(ask(Array.fill(dim)(40.0)) == ((1L, 0L)))
    // A query with a NaN coordinate: delta is NaN, so a full pass; its reach
    // is NaN, so it is never a pivot.
    assert(ask(c0.updated(0, Double.NaN)) == ((0L, 0L)))
    assert(ask(corner.map(_ + 1e-5)) == ((1L, farPoints)))
    // A refit adds points near the centre and in the background: the first
    // query's record holds no distance to them, so they are computed.
    data = data ++ (0 until 20).map(_ => row(near(c0, 5e-4))) ++ (0 until 200).map(i => row(far(83000 + i)))
    m.fit(data)
    assert(ask(corner.map(_ - 1e-5)) == ((1L, farPoints)))
    // Enough queries to cross the memo budget: the points are renumbered
    // and the records, pivots too, dropped, so the query that crossed takes
    // a full pass, and the next one takes it as a pivot.
    var held = m.memoSize
    var renumbered = false
    var i = 0
    while (!renumbered) {
      val q = near(c0, 1e-3)
      val d = ask(q)
      if (m.memoSize < held) {
        renumbered = true
        assert(d == ((0L, 0L)), s"query $i, at the renumbering")
        assert(ask(q.map(_ + 1e-5)) == ((1L, farPoints + 200)))
      } else assert(d._1 == 1L, s"query $i")
      held = m.memoSize
      i += 1
    }
  }

  test("SVM pivot-bound first passes record the near list of a full pass") {
    // A tight cluster with points spread at every radius up to 0.3 around
    // it, so each query's R falls among them; the far background is left
    // out by every bound.
    val rng = new scala.util.Random(19)
    def row(hv: Array[Double]): TrainRow = {
      val p = 1 + rng.nextInt(99)
      TrainRow(hv, p, if (p < 5 + 40 * hv(0)) 1 else 0)
    }
    val c = Array.fill(dim)(0.3)
    val cluster = (0 until 30).map(_ => row(c.map(_ + 1e-3 * (2 * rng.nextDouble() - 1))))
    val spread = (0 until 300).map { i =>
      val dir = Array.fill(dim)(rng.nextGaussian())
      val norm = math.sqrt(dir.map(x => x * x).sum)
      row(c.indices.map(j => c(j) + 0.3 * (i + 1) / 300 * dir(j) / norm).toArray)
    }
    val background = (0 until 1000).map(i => row(h(84000 + i).map(0.6 + 0.4 * _)))
    var data: IndexedSeq[TrainRow] = background ++ cluster ++ spread
    val m = new MonotonicSvm(dim)
    m.fit(data)
    def arrays(a: Seq[Array[Double]]) = {
      val set = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[Array[Double], java.lang.Boolean]())
      a.foreach(set.add)
      set
    }
    // The near points that have rows in this fit (a record keeps the ids of
    // points whose rows are gone).
    def same(a: Seq[Array[Double]], b: Seq[Array[Double]]): Boolean = {
      val in = arrays(data.map(_.h))
      arrays(a.filter(in.contains)) == arrays(b)
    }
    def ask(q: Array[Double]): Long = {
      val hits = m.nearThresholds
      val want = java.lang.Double.doubleToLongBits(referenceThreshold(data.toArray, dim, q))
      assert(java.lang.Double.doubleToLongBits(m.threshold(q)) == want)
      val full = new MonotonicSvm(dim)
      full.fit(data)
      full.threshold(q)
      assert(same(m.nearPoints(q), full.nearPoints(q)), s"the near list of a full pass at ${q.toSeq}")
      m.nearThresholds - hits
    }
    assert(ask(c.map(_ + 1.5e-3)) == 0L)
    // Its pivot holds every distance; each later one holds bounds, and an
    // equal copy of the centre has delta = 0.
    assert(ask(c.clone()) == 1L)
    assert(ask(c.map(_ - 1e-3)) == 1L)
    assert(ask(c.map(_ + 1e-3)) == 1L)
    assert(ask(c.clone()) == 1L)
    // Only the five innermost spread rows are left near the cluster: the
    // pivot's near points hold fewer than k rows, so a full pass.
    data = background ++ spread.take(5)
    m.fit(data)
    assert(ask(c.map(_ + 1e-4)) == 0L)
    // Nearest to that full pass's record, whose near points hold k rows.
    assert(ask(c.map(_ + 1.5e-4)) == 1L)
  }

  test("SVM refits of every shape answer as a freshly fitted model and the reference") {
    // Few distinct p values, so every p group holds rows from all over the
    // input and its order decides the sweep's sums.
    val rng = new scala.util.Random(17)
    val arrays = (0 until 300).map(i => h(90000 + i))
    def row(hv: Array[Double]): TrainRow = {
      val p = 1 + rng.nextInt(8)
      TrainRow(hv, p, if (rng.nextDouble() < (9 - p) / 9.0 * hv(0) + 0.1) 1 else 0)
    }
    val first = (0 until 1500).map(i => row(arrays(i % 300)))
    val appended = first ++ (0 until 400).map(_ => row(arrays(rng.nextInt(300))))
    // The session's cap: earlier positives, then the most recent rows.
    val capped = appended.dropRight(900).filter(_.label == 1).takeRight(300) ++ appended.takeRight(900)
    val subsequence = appended.filter(_ => rng.nextDouble() < 0.6)
    val repeated = subsequence.flatMap(r => if (rng.nextInt(5) == 0) Seq(r, r) else Seq(r)) ++ subsequence.take(40)
    val shuffled = rng.shuffle(repeated)
    val allNew = shuffled.map(r => r.copy()) ++ (0 until 100).map(i => row(h(91000 + i)))
    val queries = arrays.take(30) ++ (0 until 10).map(i => h(92000 + i))
    val m = new MonotonicSvm(dim)
    for ((name, data) <- Seq("first fit" -> first, "append" -> appended, "fitCap shape" -> capped,
        "subsequence" -> subsequence, "repeated rows" -> repeated, "shuffled" -> shuffled,
        "every row new" -> allNew, "again" -> allNew)) {
      m.fit(data)
      val fresh = new MonotonicSvm(dim)
      fresh.fit(data)
      val want = queries.map(q => java.lang.Double.doubleToLongBits(referenceThreshold(data.toArray, dim, q)))
      assert(thresholdBits(m, queries) == want, name)
      assert(thresholdBits(fresh, queries) == want, name)
      assert(m.support.corresponds(fresh.support) { case ((h1, p1, l1), (h2, p2, l2)) =>
        (h1 eq h2) && p1 == p2 && l1 == l2 }, s"$name: the support order")
    }
  }

  test("exp(-x) is exactly +0.0 beyond 746, the SVM's kernel-weight cut-off") {
    val fine = (0 to 20000).map(i => 746.0 + i * 0.005)
    val coarse = Iterator.iterate(756.0)(_ * 1.01).takeWhile(_ <= 1e300).toSeq
    for (x <- fine ++ coarse ++ Seq(1e300, Double.MaxValue, Double.PositiveInfinity))
      assert(java.lang.Double.doubleToLongBits(math.exp(-x)) == 0L, s"exp(-$x) = ${math.exp(-x)}")
  }

  test("SVM fit rejects parallelism below 1, naming the row") {
    val m = new MonotonicSvm(dim)
    val good = rows(100)
    m.fit(good)
    val before = thresholdBits(m, Seq(h(10000), h(10001)))
    val bad = good.take(7) :+ TrainRow(h(1), 0, 1)
    val e = intercept[IllegalArgumentException](m.fit(bad))
    assert(e.getMessage.contains("row 7"), e.getMessage)
    // The rejected fit leaves the previous support set in place.
    assert(thresholdBits(m, Seq(h(10000), h(10001))) == before)
  }

  test("NN fits the same synthetic task to reasonable accuracy") {
    val m = new PlainNn(dim)
    m.fit(rows(1500))
    var correct = 0
    val test = rows(300, seed = 2)
    test.foreach { r =>
      val pred = if (m.bottleneckProb(r.h, r.p) > 0.5) 1 else 0
      if (pred == r.label) correct += 1
    }
    assert(correct.toDouble / test.size > 0.7, s"NN accuracy ${correct.toDouble / test.size}")
  }

  test("NN exposes monotonic = false, monotone models expose true") {
    assert(!new PlainNn(dim).monotonic)
    assert(new MonotonicSvm(dim).monotonic)
    assert(new MonotonicGbt(dim).monotonic)
  }
}

/** ScalaCheck property suite: monotonicity of M_f under arbitrary inputs. */
object MonotonicProps extends Properties("MonotonicModels") {
  import MonotonicFixtures._

  private val svm = new MonotonicSvm(dim)
  svm.fit(rows(800))
  private val gbt = new MonotonicGbt(dim, rounds = 10)
  gbt.fit(rows(800))

  private val genH = Gen.choose(0, 10000).map(h)
  private val genP = Gen.choose(1, 99)

  property("svm non-increasing in p") = Prop.forAll(genH, genP) { (hv, p) =>
    svm.bottleneckProb(hv, p + 1) <= svm.bottleneckProb(hv, p) + 1e-12
  }

  property("gbt non-increasing in p") = Prop.forAll(genH, genP) { (hv, p) =>
    gbt.bottleneckProb(hv, p + 1) <= gbt.bottleneckProb(hv, p) + 1e-9
  }

  property("probabilities are valid") = Prop.forAll(genH, genP) { (hv, p) =>
    val a = svm.bottleneckProb(hv, p)
    val b = gbt.bottleneckProb(hv, p)
    a >= 0.0 && a <= 1.0 && b >= 0.0 && b <= 1.0
  }
}

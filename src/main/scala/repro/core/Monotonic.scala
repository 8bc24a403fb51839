package repro.core

import repro.dataflow.DetRandom

/** One fine-tuning training row: parallelism-agnostic embedding `h`,
  * parallelism degree `p`, and the Algorithm-1 bottleneck label (0/1).
  */
final case class TrainRow(h: Array[Double], p: Int, label: Int)

/** The fine-tuned bottleneck-prediction model M_f of §IV-B: estimates
  * P(bottleneck | h, p). Implementations with `monotonic = true` guarantee
  * the probability is non-increasing in p — the paper's monotonic
  * constraint — which makes the minimum-parallelism search sound.
  */
trait FineTuneModel {
  def fit(rows: IndexedSeq[TrainRow]): Unit
  def bottleneckProb(h: Array[Double], p: Int): Double
  def monotonic: Boolean
  def name: String
}

object FineTuneModel {
  /** Probability below which an operator is declared safe (non-bottleneck)
    * during the parallelism search. Slightly below 0.5: prefer one extra
    * unit of parallelism over a backpressure incident.
    */
  val safeProb = 0.45

  /** Line 8 of Algorithm 2: the minimum parallelism whose predicted label
    * is 0. Binary search — sound when the model is monotonic; for the
    * non-monotonic NN ablation it is the same (now unsound) search, which
    * is exactly how the paper's Fig. 11a failure mode arises.
    */
  def minSafeParallelism(model: FineTuneModel, h: Array[Double], pMax: Int): Int = {
    var lo = 1
    var hi = pMax
    if (model.bottleneckProb(h, pMax) >= safeProb) return pMax
    while (lo < hi) {
      val mid = (lo + hi) / 2
      if (model.bottleneckProb(h, mid) < safeProb) hi = mid else lo = mid + 1
    }
    lo
  }
}

/** Kernelized monotonic classifier — the SVM variant of §IV-B(a).
  *
  * Eq. 4 separates the decision function into a kernelized part over the
  * embedding, `w_e . phi(h)`, and a linear monotone term in parallelism,
  * `w_p * p` with `w_p <= 0`. We realize exactly that structure in its
  * local (kernel-evaluation) form: for a query embedding h, training rows
  * are weighted by an RBF kernel in embedding space (adaptive bandwidth =
  * distance to the k-th neighbor), and the decision in p is a single
  * monotone cut at the weighted-misclassification-minimizing threshold
  * t(h) in log-parallelism — the separating hyperplane restricted to the p
  * axis, with monotonicity (probability non-increasing in p) holding by
  * construction for every h.
  *
  * The support set is ordered by p (ties in input order). Every distinct
  * support array (by identity) has a point id that stays the same across
  * refits, and `fit` indexes the rows by point id. A refit finds the
  * previous fit's rows with a forward identity cursor. Each p group is then
  * its kept rows, copied from the previous support arrays in their order,
  * followed by its new rows in input order, so only new rows take a hash
  * lookup; the first fit is the case where every row is new. A point's
  * coordinates are copied once, when it gets its id, into one array in id
  * order, which the distance loops read.
  *
  * Each query array keeps one record: its threshold at the latest fit, its
  * squared distance to each point id it has met (computed once) or a lower
  * bound on that distance, and its near list, the point ids within the
  * reach R = 2 * 1492 * sigma^2, twice the squared distance at which a
  * weight underflows. A row whose exponent is beyond -746 weighs exactly
  * 0.0 (`exp` underflows there); the sweep skips it, which leaves every
  * error it compares unchanged.
  *
  * A query's first threshold takes the recorded query nearest to it as a
  * pivot. The k-th smallest distance over the rows of the pivot's near
  * points bounds sigma^2, and so R, from above (R_up). By the triangle
  * inequality a point lies at least its distance (or bound) from the pivot
  * minus delta, the query's distance from the pivot, from the query; a
  * relative margin of 1e-9 on each operand covers the rounding, which
  * scales with the larger of them. A point whose bound exceeds sqrt(R_up)
  * by the margin keeps the bound instead of a distance. It is not among
  * the k nearest, since at least k rows lie within R_up, it is not within
  * R, and its weight underflows; so sigma^2, the near list and the sweep
  * have the bits of a pass over every point. Without a pivot, with a NaN
  * delta, or with fewer than k rows near the pivot, every distance is
  * computed. A first pass computes its missing distances four points to a
  * loop, each summed in the same order.
  *
  * Every later threshold files the points added since, then works on the
  * near points' rows alone: the bandwidth from their distances, then the
  * sweep over their rows that can weigh more than 0.0, put back in support
  * order through a position bitmap. That gives the first pass's bits as
  * long as the near rows hold the k nearest, every point beyond R still
  * underflows (R / (2 sigma^2) > 746), and no point with a NaN distance has
  * rows; otherwise the threshold is taken by a first pass again, which
  * records the list afresh. So a later threshold costs time in proportion
  * to the points and rows the kernel reaches, not to n; a first pass still
  * reads every point's entry, but computes only the distances its bound
  * does not rule out.
  *
  * Embedding arrays are taken to be immutable, as the identity keys
  * require. The records are dropped and the points renumbered when they
  * would hold more than `memoBudget` distances (8 MB).
  */
final class MonotonicSvm(embedDim: Int) extends FineTuneModel {
  import MonotonicSvm._
  override val name = "SVM"
  override val monotonic = true
  private val kNeighbors = 16
  private val sharpness  = 60.0 // logistic slope per log10-parallelism unit

  // The support set, ordered by p (ties in input order), with each row's
  // point id; ps(groupEnd(p)) is the next larger p after p's rows.
  private var hs: Array[Array[Double]] = Array.empty
  private var ps: Array[Int] = Array.empty
  private var positive: Array[Boolean] = Array.empty
  private var ids: Array[Int] = Array.empty
  private var groupEnd: Array[Int] = Array(0)
  // The rows by point id: point `id` has the positions
  // rowsAt(rowStart(id) until rowStart(id + 1)), ascending.
  private var rowStart: Array[Int] = Array(0)
  private var rowsAt: Array[Int] = Array.empty
  private var fits = 0
  // The previous fit's rows in input order, and each row's support position.
  private var lastRows: Array[TrainRow] = Array.empty
  private var lastPos: Array[Int] = Array.empty
  // Point ids of the support arrays met since the last renumbering, and
  // point `id`'s coordinates at coords(id * embedDim until (id + 1) * embedDim),
  // one run per point, so distances read the points in id order.
  private val pointIds = new java.util.IdentityHashMap[Array[Double], Integer]()
  private var coords: Array[Double] = Array.empty
  private val queries = new java.util.IdentityHashMap[Array[Double], Query]()
  // The records in the order they were made: the pivot candidates.
  private val pivots = scala.collection.mutable.ArrayBuffer[Query]()
  private var held = 0L // distances held by all query records
  private[core] def memoSize: Long = held
  // Thresholds taken without a distance to every point (near path, or a
  // first pass under a pivot bound), near-path refusals by cause, and
  // points a first pass gave a bound beyond R in place of a distance.
  private var nearHits = 0L
  private val refused = new Array[Long](3)
  private var beyondMarks = 0L
  private[core] def nearThresholds: Long = nearHits
  private[core] def refusals(cause: Int): Long = refused(cause)
  private[core] def markedBeyond: Long = beyondMarks
  // For tests: the support rows in order, and the arrays in a query's near
  // list.
  private[core] def support: IndexedSeq[(Array[Double], Int, Boolean)] =
    hs.indices.map(i => (hs(i), ps(i), positive(i)))
  private[core] def nearPoints(h: Array[Double]): IndexedSeq[Array[Double]] = {
    val q = queries.get(h)
    if (q == null) IndexedSeq.empty
    else {
      val byId = new Array[Array[Double]](pointIds.size)
      pointIds.forEach((a, id) => byId(id) = a)
      (0 until q.near.size).map(i => byId(q.near.ids(i)))
    }
  }
  // Per-threshold scratch: kernel weights by position, the positions of
  // the rows the sweep reads, a bitmap that orders them, and the point ids
  // a first pass meets and those it computes a distance to.
  private var weights: Array[Double] = Array.empty
  private var met: Array[Int] = Array.empty
  private var todo: Array[Int] = Array.empty
  private var reached: Array[Int] = Array.empty
  private var reachedBits: Array[Long] = Array.empty
  private val nearest = new Array[Double](kNeighbors)

  override def fit(data: IndexedSeq[TrainRow]): Unit = {
    val n = data.length
    var maxP = 0
    var i = 0
    while (i < n) {
      val p = data(i).p
      require(p >= 1, s"MonotonicSvm.fit: row $i has parallelism $p; p must be >= 1")
      if (p > maxP) maxP = p
      i += 1
    }
    // The previous fit's rows met again, in order: keptAt(pos) is the input
    // index of the previous support row at pos, or -1. A row the cursor
    // does not find ends the search; it and every later row count as new,
    // so every new row comes after every kept one.
    val (prev, prevPos, oldN) = (lastRows, lastPos, ps.length)
    val rows = new Array[TrainRow](n)
    val keptAt = new Array[Int](oldN)
    java.util.Arrays.fill(keptAt, -1)
    val fresh = new Array[Int](n)
    var nFresh = 0
    val nKept = new Array[Int](maxP + 2)
    val nNew = new Array[Int](maxP + 2)
    var cursor = 0
    i = 0
    while (i < n) {
      val r = data(i)
      rows(i) = r
      while (cursor < prev.length && !(prev(cursor) eq r)) cursor += 1
      if (cursor < prev.length) { keptAt(prevPos(cursor)) = i; cursor += 1; nKept(r.p) += 1 }
      else { fresh(nFresh) = i; nFresh += 1; nNew(r.p) += 1 }
      i += 1
    }
    // Each p group: its kept rows in their previous order, then its new rows
    // in input order, as a stable sort of the input by p would place them.
    // keptNext(p) and newNext(p) are the next slots of each; newNext(p) ends
    // at the end of p's group, the next larger p's first row.
    val keptNext = new Array[Int](maxP + 2)
    val newNext = new Array[Int](maxP + 2)
    var at = 0
    var p = 1
    while (p <= maxP + 1) {
      keptNext(p) = at
      newNext(p) = at + nKept(p)
      at += nKept(p) + nNew(p)
      p += 1
    }
    val nHs = new Array[Array[Double]](n)
    val nPs = new Array[Int](n)
    val nPositive = new Array[Boolean](n)
    val nIds = new Array[Int](n)
    val pos = new Array[Int](n)
    var old = 0
    while (old < oldN) {
      val kept = keptAt(old)
      if (kept >= 0) {
        val g = ps(old)
        at = keptNext(g)
        keptNext(g) = at + 1
        nHs(at) = hs(old); nPs(at) = g; nPositive(at) = positive(old); nIds(at) = ids(old)
        pos(kept) = at
      }
      old += 1
    }
    var f = 0
    while (f < nFresh) {
      val r = rows(fresh(f))
      at = newNext(r.p)
      newNext(r.p) = at + 1
      nHs(at) = r.h; nPs(at) = r.p; nPositive(at) = r.label == 1; nIds(at) = pointId(r.h)
      pos(fresh(f)) = at
      f += 1
    }
    hs = nHs; ps = nPs; positive = nPositive; ids = nIds; groupEnd = newNext
    lastRows = rows
    lastPos = pos
    index()
    if (weights.length < n) {
      weights = new Array[Double](n)
      reached = new Array[Int](n)
      reachedBits = new Array[Long]((n + 63) >>> 6)
    }
    fits += 1
  }

  /** The point id of support array h. A new array takes the next id and
    * copies its coordinates into `coords`.
    */
  private def pointId(h: Array[Double]): Int = {
    val known = pointIds.get(h)
    if (known != null) known.intValue()
    else {
      val id = pointIds.size
      pointIds.put(h, id)
      if ((id + 1) * embedDim > coords.length) coords = java.util.Arrays.copyOf(coords, math.max(64, 2 * id) * embedDim)
      System.arraycopy(h, 0, coords, id * embedDim, embedDim)
      id
    }
  }

  /** Indexes the support rows by point id, in O(n + point ids). */
  private def index(): Unit = {
    val n = ids.length
    val count = pointIds.size
    val offsets = new Array[Int](count + 1)
    var i = 0
    while (i < n) { offsets(ids(i) + 1) += 1; i += 1 }
    var id = 0
    while (id < count) { offsets(id + 1) += offsets(id); id += 1 }
    // Place each row at its id's cursor, which ends at the next id's start.
    val at = new Array[Int](n)
    i = 0
    while (i < n) { val c = offsets(ids(i)); at(c) = i; offsets(ids(i)) = c + 1; i += 1 }
    System.arraycopy(offsets, 0, offsets, 1, count)
    offsets(0) = 0
    rowStart = offsets
    rowsAt = at
  }

  /** Drops every query record and numbers the current support arrays from 0. */
  private def renumber(): Unit = {
    queries.clear()
    pivots.clear()
    held = 0
    pointIds.clear()
    var i = 0
    while (i < hs.length) { ids(i) = pointId(hs(i)); i += 1 }
    index()
  }

  /** The record of query `h`, its distances covering every point id. */
  private def record(h: Array[Double]): Query = {
    val q = queries.get(h)
    val have = if (q == null) 0 else q.dist.length
    val need = pointIds.size
    if (q != null && have >= need) return q
    val size = need + memoGrowth
    if (held > 0 && held + size - have > memoBudget) {
      renumber()
      return record(h)
    }
    val dist = if (q == null) new Array[Double](size) else java.util.Arrays.copyOf(q.dist, size)
    java.util.Arrays.fill(dist, have, size, unknown)
    held += size - have
    if (q == null) { val fresh = new Query(h, dist); queries.put(h, fresh); pivots += fresh; fresh }
    else { q.dist = dist; q }
  }

  /** The monotone cut t(h) in pNorm (log10 p) units: predicted bottleneck
    * iff pNorm(p) < t(h).
    */
  def threshold(h: Array[Double]): Double = {
    val q = record(h)
    if (q.fit != fits) {
      val t = if (q.fit < 0) Double.NaN else nearThreshold(h, q)
      q.t = if (java.lang.Double.isNaN(t)) firstThreshold(h, q) else t
      q.fit = fits
    }
    q.t
  }

  private def distance(h: Array[Double], hi: Array[Double]): Double = {
    var s = 0.0; var j = 0
    while (j < embedDim) { val d = h(j) - hi(j); s += d * d; j += 1 }
    s
  }

  /** The squared distance from h to point `id`, summed as `distance` sums. */
  private def distanceTo(h: Array[Double], id: Int): Double = {
    val x = coords
    val a = id * embedDim
    var s = 0.0; var j = 0
    while (j < embedDim) { val d = h(j) - x(a + j); s += d * d; j += 1 }
    s
  }

  /** Sets dist(id) to the squared distance from h for each id in
    * todo(0 until m). Four points share a loop, which runs their sums side
    * by side, each in the order of `distance`, so the bits are its bits.
    */
  private def measure(h: Array[Double], dist: Array[Double], m: Int): Unit = {
    val x = coords
    val dim = embedDim
    var i = 0
    while (i + 4 <= m) {
      val a = todo(i) * dim; val b = todo(i + 1) * dim
      val c = todo(i + 2) * dim; val d = todo(i + 3) * dim
      var sa = 0.0; var sb = 0.0; var sc = 0.0; var sd = 0.0
      var j = 0
      while (j < dim) {
        val hj = h(j)
        val da = hj - x(a + j); val db = hj - x(b + j); val dc = hj - x(c + j); val dd = hj - x(d + j)
        sa += da * da; sb += db * db; sc += dc * dc; sd += dd * dd
        j += 1
      }
      dist(todo(i)) = sa; dist(todo(i + 1)) = sb; dist(todo(i + 2)) = sc; dist(todo(i + 3)) = sd
      i += 4
    }
    while (i < m) { dist(todo(i)) = distanceTo(h, todo(i)); i += 1 }
  }

  /** Puts distance `s` among the k smallest, held in ascending order in
    * `nearest(0 until kept)`; returns how many are held after.
    */
  private def keepNearest(s: Double, kept: Int, k: Int): Int = {
    val now = if (kept < k) kept + 1 else kept
    var at = now - 1
    while (at > 0 && s < nearest(at - 1)) { nearest(at) = nearest(at - 1); at -= 1 }
    nearest(at) = s
    now
  }

  /** Counts point `id`'s rows, each at distance `s`, among the k smallest. */
  private def keepRows(id: Int, s: Double, kept: Int, k: Int): Int = {
    var c = rowStart(id + 1) - rowStart(id)
    var now = kept
    while (c > 0 && (now < k || s < nearest(k - 1))) { now = keepNearest(s, now, k); c -= 1 }
    now
  }

  /** Gives point `id`'s rows the weight exp(-x) and marks them reached,
    * unless x > 746, where the weight is exactly 0.0. A NaN weight is kept.
    */
  private def weigh(id: Int, x: Double): Unit = {
    var r = rowStart(id)
    val end = rowStart(id + 1)
    if (r < end && !(x > 746.0)) {
      val wt = math.exp(-x)
      while (r < end) {
        val pos = rowsAt(r)
        weights(pos) = wt
        reachedBits(pos >>> 6) |= 1L << pos
        r += 1
      }
    }
  }

  /** The marked positions, ascending, into `reached`; clears the bitmap and
    * returns how many there are.
    */
  private def gather(): Int = {
    val bits = reachedBits
    val words = (ps.length + 63) >>> 6
    var m = 0
    var word = 0
    while (word < words) {
      var b = bits(word)
      if (b != 0L) {
        bits(word) = 0L
        while (b != 0L) {
          reached(m) = (word << 6) | java.lang.Long.numberOfTrailingZeros(b)
          m += 1
          b &= b - 1
        }
      }
      word += 1
    }
    m
  }

  /** The recorded query other than q nearest to h with a reach, or null
    * (the first of equals).
    */
  private def pivotFor(h: Array[Double], q: Query): Query = {
    var best: Query = null
    var bestS = Double.PositiveInfinity
    var i = 0
    while (i < pivots.length) {
      val c = pivots(i)
      if (!(c eq q) && !java.lang.Double.isNaN(c.reach)) {
        val s = distance(h, c.h)
        if (s < bestS) { best = c; bestS = s }
      }
      i += 1
    }
    best
  }

  /** The threshold from every point's distance, or a bound that puts the
    * point beyond R; records q's near list.
    */
  private def firstThreshold(h: Array[Double], q: Query): Double = {
    val n = ps.length
    if (n == 0) return -0.5
    val dist = q.dist
    val count = pointIds.size
    val k = math.max(1, math.min(kNeighbors, n - 1))
    if (met.length < count) { met = new Array[Int](count + memoGrowth); todo = new Array[Int](count + memoGrowth) }
    val pivot = pivotFor(h, q)
    val delta = if (pivot == null) Double.NaN else math.sqrt(distance(h, pivot.h))
    val rootCut = if (java.lang.Double.isNaN(delta)) Double.PositiveInfinity else cutFrom(h, dist, pivot.near, k)
    // Every point's distance, or a lower bound on it beyond rootCut (and so
    // beyond R); the bandwidth as before, each point counted once per row.
    // A NaN distance is never kept.
    val bounded = rootCut < Double.PositiveInfinity
    val nMet = sift(h, dist, count, if (bounded) pivot.dist else Array.emptyDoubleArray, delta, rootCut)
    val kept = keepMet(dist, nMet, k)
    val sigma2 = math.max(1e-9, if (kept == k) nearest(k - 1) else Double.NaN)
    q.reach = 2.0 * 1492.0 * sigma2
    q.near.size = 0
    q.nan.size = 0
    var i = 0
    while (i < nMet) {
      val id = met(i)
      val s = dist(id)
      if (s <= q.reach) q.near.add(id)
      else if (java.lang.Double.isNaN(s)) q.nan.add(id)
      weigh(id, s / (2.0 * sigma2))
      i += 1
    }
    q.classified = count
    if (bounded) nearHits += 1
    sweep(gather())
  }

  /** The pivot's cut, sqrt(R_up) with the margin: R_up = 2 * 1492 times the
    * k-th smallest distance from h over the rows of the pivot's near points,
    * which is at least sigma^2; +inf if those rows are fewer than k.
    */
  private def cutFrom(h: Array[Double], dist: Array[Double], near: IdList, k: Int): Double = {
    var m = 0
    var i = 0
    while (i < near.size) { val id = near.ids(i); if (dist(id) < 0.0) { todo(m) = id; m += 1 }; i += 1 }
    measure(h, dist, m)
    var kept = 0
    i = 0
    while (i < near.size) {
      val id = near.ids(i)
      val s = dist(id)
      if (!java.lang.Double.isNaN(s)) kept = keepRows(id, s, kept, k)
      i += 1
    }
    if (kept == k) math.sqrt(2.0 * 1492.0 * math.max(1e-9, nearest(k - 1))) * (1.0 + margin)
    else Double.PositiveInfinity
  }

  /** Puts into `met` every point id that is not beyond rootCut and gives it
    * its distance from h if it has none; gives each point beyond rootCut
    * its bound instead. Returns how many are met.
    */
  private def sift(h: Array[Double], dist: Array[Double], count: Int, pd: Array[Double], delta: Double,
      rootCut: Double): Int = {
    var nMet = 0
    var m = 0
    var id = 0
    while (id < count) {
      val s = dist(id)
      var beyond = false
      if (s < 0.0) {
        // The triangle inequality through the pivot, with a rounding margin
        // on both operands.
        var lo = -1.0 - s
        if (id < pd.length) {
          val sp = pd(id)
          val below = (if (sp >= 0.0) math.sqrt(sp) else -1.0 - sp) * (1.0 - margin) - delta * (1.0 + margin)
          if (below > lo) lo = below
        }
        beyond = lo > rootCut
        if (beyond) { dist(id) = -1.0 - lo; beyondMarks += 1 }
        else { todo(m) = id; m += 1 }
      }
      if (!beyond) { met(nMet) = id; nMet += 1 }
      id += 1
    }
    measure(h, dist, m)
    nMet
  }

  /** Counts the rows of the met points among the k smallest; returns how
    * many are held.
    */
  private def keepMet(dist: Array[Double], nMet: Int, k: Int): Int = {
    var kept = 0
    var i = 0
    while (i < nMet) {
      val s = dist(met(i))
      if (s >= 0.0) kept = keepRows(met(i), s, kept, k)
      i += 1
    }
    kept
  }

  /** Files the point ids q has not met yet under its near or NaN list. */
  private def classify(h: Array[Double], q: Query): Unit = {
    val dist = q.dist
    val count = pointIds.size
    var id = q.classified
    while (id < count) {
      var s = dist(id)
      if (s < 0.0) { s = distanceTo(h, id); dist(id) = s }
      if (s <= q.reach) q.near.add(id)
      else if (java.lang.Double.isNaN(s)) q.nan.add(id)
      id += 1
    }
    q.classified = count
  }

  /** The first pass's threshold from the rows of q's near points alone, or
    * NaN where those rows might not decide it.
    */
  private def nearThreshold(h: Array[Double], q: Query): Double = {
    classify(h, q)
    val n = ps.length
    val dist = q.dist
    val near = q.near.ids
    val nNear = q.near.size
    var i = 0
    while (i < q.nan.size) {
      val id = q.nan.ids(i)
      if (rowStart(id + 1) > rowStart(id)) { refused(RefusedNan) += 1; return Double.NaN }
      i += 1
    }
    // The bandwidth as in the first pass; every other row lies beyond R.
    val k = math.max(1, math.min(kNeighbors, n - 1))
    var kept = 0
    i = 0
    while (i < nNear) { val id = near(i); kept = keepRows(id, dist(id), kept, k); i += 1 }
    if (kept < k) { refused(RefusedFew) += 1; return Double.NaN }
    val sigma2 = math.max(1e-9, nearest(k - 1))
    if (!(q.reach / (2.0 * sigma2) > 746.0)) { refused(RefusedReach) += 1; return Double.NaN }
    i = 0
    while (i < nNear) { val id = near(i); weigh(id, dist(id) / (2.0 * sigma2)); i += 1 }
    nearHits += 1
    sweep(gather())
  }

  /** Sweeps the cut over sorted log-parallelism values and returns the one
    * of least weighted misclassification: label=1 at p_i wants t > pNorm(p_i),
    * label=0 wants t <= pNorm(p_i). Reads the rows at `reached(0 until m)`,
    * ascending, with their kernel weights; every other row weighs +0.0, and
    * adding it would leave each error, and so the cut, unchanged.
    */
  private def sweep(m: Int): Double = {
    val n = ps.length
    val w = weights
    val at = reached
    // The cut t = -inf: every positive row misclassified.
    var err = 0.0
    var i = 0
    while (i < m) { if (positive(at(i))) err += w(at(i)); i += 1 }
    var bestErr = err
    var bestT = -0.5
    i = 0
    while (i < m) {
      val p = ps(at(i))
      // Move the cut just above parallelism p (flip all rows at this p).
      while (i < m && ps(at(i)) == p) {
        val pos = at(i)
        if (positive(pos)) err -= w(pos) else err += w(pos)
        i += 1
      }
      if (err < bestErr - 1e-12) {
        bestErr = err
        val next = groupEnd(p)
        bestT =
          if (next >= n) Features.pNorm(p) + 0.15 // beyond all data
          else (Features.pNorm(p) + Features.pNorm(ps(next))) / 2.0
      }
    }
    bestT
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    val t = threshold(h)
    1.0 / (1.0 + math.exp(-sharpness * (t - Features.pNorm(p))))
  }
}

object MonotonicSvm {
  /** Most squared distances the query records of one model hold (8 MB). */
  val memoBudget: Long = 1L << 20
  /** Slots a query record grows by beyond the current point count. */
  private val memoGrowth = 256
  /** A record's entry for a point with no distance yet: an entry e < 0 says
    * the distance (not squared) is at least -1 - e, so `unknown` says
    * nothing. Squared distances are >= 0 or NaN. A bound is stored only
    * beyond sqrt(2 * 1492 * 1e-9) > 0.0017, where -1 - e keeps it to 1.3e-13
    * of itself, well inside `margin`.
    */
  private val unknown = -1.0
  /** The relative rounding margin of the pivot bound. */
  private val margin = 1e-9
  /** Causes of a near-path refusal: a point with a NaN distance has rows;
    * the near points hold fewer than k rows; a point beyond the reach might
    * not underflow.
    */
  private[core] val RefusedNan   = 0
  private[core] val RefusedFew   = 1
  private[core] val RefusedReach = 2

  /** A growable list of point ids. */
  private final class IdList {
    var ids = new Array[Int](16)
    var size = 0
    def add(id: Int): Unit = {
      if (size == ids.length) ids = java.util.Arrays.copyOf(ids, 2 * size)
      ids(size) = id
      size += 1
    }
  }

  /** One query embedding `h`: its squared distance to each point id or a
    * bound on it (see `unknown`), its threshold as of fit number `fit`, and
    * the point ids it has classified (the first `classified`) by distance:
    * within `reach`, or NaN. Every point with a bound lies farther than
    * `reach`.
    */
  private final class Query(val h: Array[Double], var dist: Array[Double]) {
    var fit = -1
    var t = 0.0
    var reach = Double.NaN
    var classified = 0
    val near = new IdList
    val nan = new IdList
  }
}

/** Gradient-boosted decision trees with a monotone-decreasing constraint on
  * the parallelism feature (the paper's XGBoost variant, §IV-B(b)).
  *
  * Exact greedy splits on (h..., p) with logistic loss and Newton leaf
  * values; splits on the parallelism feature whose left (low-p) value is
  * below the right value are discarded (gain set to -inf), and value bounds
  * are propagated down both subtrees so the *whole ensemble* — not just
  * single splits — respects monotonicity.
  */
final class MonotonicGbt(embedDim: Int, rounds: Int = 30) extends FineTuneModel {
  override val name = "XGBoost"
  override val monotonic: Boolean = true
  private val depth    = 3
  private val lr       = 0.3
  private val lambda   = 1.0 // L2 penalty on leaf values
  private val minChild = 5   // fewest rows in a leaf

  private val pIdx = embedDim // feature index of parallelism

  private sealed trait Node
  private final case class Leaf(value: Double) extends Node
  private final case class Split(feature: Int, thr: Double, left: Node, right: Node) extends Node

  private var trees: List[Node] = Nil
  private var base = 0.0

  private def featuresOf(r: TrainRow): Array[Double] = r.h :+ Features.pNorm(r.p)

  private def predictRaw(x: Array[Double]): Double = {
    var s = base
    trees.foreach { t =>
      var node = t
      var done = false
      while (!done) node match {
        case Leaf(v) => s += v; done = true
        case Split(f, thr, l, rgt) => node = if (x(f) <= thr) l else rgt
      }
    }
    s
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    val x = h :+ Features.pNorm(p)
    1.0 / (1.0 + math.exp(-predictRaw(x)))
  }

  override def fit(rows: IndexedSeq[TrainRow]): Unit = {
    if (rows.isEmpty) return
    trees = Nil
    val xs = rows.map(featuresOf).toArray
    val ys = rows.map(_.label.toDouble).toArray
    val posRate = math.min(0.99, math.max(0.01, ys.sum / ys.length))
    base = math.log(posRate / (1 - posRate))
    val raw = Array.fill(ys.length)(base)
    var round = 0
    while (round < rounds) {
      val g = new Array[Double](ys.length)
      val h = new Array[Double](ys.length)
      var i = 0
      while (i < ys.length) {
        val p = 1.0 / (1.0 + math.exp(-raw(i)))
        g(i) = p - ys(i)
        h(i) = math.max(1e-6, p * (1 - p))
        i += 1
      }
      val tree = buildNode(xs, g, h, (0 until ys.length).toArray, depth,
        lo = Double.NegativeInfinity, hi = Double.PositiveInfinity)
      trees = trees :+ tree
      i = 0
      while (i < ys.length) {
        raw(i) += lr * leafValueFor(tree, xs(i))
        i += 1
      }
      round += 1
    }
  }

  private def leafValueFor(t: Node, x: Array[Double]): Double = t match {
    case Leaf(v)              => v
    case Split(f, thr, l, r) => if (x(f) <= thr) leafValueFor(l, x) else leafValueFor(r, x)
  }

  private def leafValue(g: Double, h: Double, lo: Double, hi: Double): Double =
    math.min(hi, math.max(lo, -g / (h + lambda)))

  private def buildNode(
      xs: Array[Array[Double]], g: Array[Double], h: Array[Double],
      idx: Array[Int], d: Int, lo: Double, hi: Double,
  ): Node = {
    val gSum = idx.map(g).sum
    val hSum = idx.map(h).sum
    val selfValue = leafValue(gSum, hSum, lo, hi)
    if (d == 0 || idx.length < 2 * minChild) return Leaf(selfValue)

    val nFeatures = xs(0).length
    var bestGain = 0.0
    var bestF = -1; var bestThr = 0.0
    var f = 0
    while (f < nFeatures) {
      val values = idx.map(i => xs(i)(f)).distinct.sorted
      if (values.length > 1) {
        val candidates =
          if (values.length <= 33) values.sliding(2).map(p => (p(0) + p(1)) / 2).toArray
          else Array.tabulate(32)(k => values((values.length - 1) * (k + 1) / 33))
        candidates.foreach { thr =>
          var gL = 0.0; var hL = 0.0; var nL = 0
          idx.foreach { i =>
            if (xs(i)(f) <= thr) { gL += g(i); hL += h(i); nL += 1 }
          }
          val nR = idx.length - nL
          if (nL >= minChild && nR >= minChild) {
            val gR = gSum - gL; val hR = hSum - hL
            val gain = gL * gL / (hL + lambda) + gR * gR / (hR + lambda) -
              gSum * gSum / (hSum + lambda)
            val monotoneOk =
              f != pIdx || {
                // Decreasing in p: the low-p side must not predict lower.
                leafValue(gL, hL, lo, hi) >= leafValue(gR, hR, lo, hi)
              }
            if (gain > bestGain && monotoneOk) {
              bestGain = gain; bestF = f; bestThr = thr
            }
          }
        }
      }
      f += 1
    }
    if (bestF < 0) return Leaf(selfValue)

    val (li, ri) = idx.partition(i => xs(i)(bestF) <= bestThr)
    if (bestF == pIdx) {
      // Bound propagation: children on the low-p side stay >= mid, high-p
      // side stays <= mid, so monotonicity holds across whole subtrees.
      val wL = leafValue(li.map(g).sum, li.map(h).sum, lo, hi)
      val wR = leafValue(ri.map(g).sum, ri.map(h).sum, lo, hi)
      val mid = (wL + wR) / 2
      Split(bestF, bestThr,
        buildNode(xs, g, h, li, d - 1, mid, hi),
        buildNode(xs, g, h, ri, d - 1, lo, mid))
    } else {
      Split(bestF, bestThr,
        buildNode(xs, g, h, li, d - 1, lo, hi),
        buildNode(xs, g, h, ri, d - 1, lo, hi))
    }
  }
}

/** Plain MLP with no monotonic constraint — the NN ablation of Fig. 11a.
  * Deliberately the same capacity class as the other models; its failure
  * mode is structural (non-monotone decision boundary makes the binary
  * search unsound), not capacity.
  */
final class PlainNn(embedDim: Int) extends FineTuneModel {
  override val name = "NN"
  override val monotonic = false
  private val hidden = 16
  private val epochs = 40
  private val lr     = 0.05
  private val seed   = 29L

  private val inDim = embedDim + 1
  private def g(tag: String, i: Int): Double = {
    val u1 = math.max(1e-12, DetRandom.unit(seed, tag, i, "u1"))
    val u2 = DetRandom.unit(seed, tag, i, "u2")
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2 * math.Pi * u2)
  }
  private val w1 = Array.tabulate(hidden * inDim)(i => g("w1", i) * math.sqrt(2.0 / inDim))
  private val b1 = new Array[Double](hidden)
  private val w2 = Array.tabulate(hidden)(i => g("w2", i) * math.sqrt(2.0 / hidden))
  private var b2 = 0.0

  private def forward(x: Array[Double]): (Array[Double], Double) = {
    val a = new Array[Double](hidden)
    var i = 0
    while (i < hidden) {
      var s = b1(i); var j = 0
      while (j < inDim) { s += w1(i * inDim + j) * x(j); j += 1 }
      a(i) = math.max(0.0, s)
      i += 1
    }
    var out = b2
    i = 0
    while (i < hidden) { out += w2(i) * a(i); i += 1 }
    (a, out)
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    val x = h :+ Features.pNorm(p)
    1.0 / (1.0 + math.exp(-forward(x)._2))
  }

  override def fit(rows: IndexedSeq[TrainRow]): Unit = {
    if (rows.isEmpty) return
    val xs = rows.map(r => r.h :+ Features.pNorm(r.p)).toArray
    val ys = rows.map(_.label.toDouble).toArray
    var e = 0
    while (e < epochs) {
      var r = 0
      while (r < ys.length) {
        val (a, logit) = forward(xs(r))
        val p = 1.0 / (1.0 + math.exp(-logit))
        val dLogit = (p - ys(r)) * lr
        var i = 0
        while (i < hidden) {
          if (a(i) > 0) {
            val da = w2(i) * dLogit
            var j = 0
            while (j < inDim) { w1(i * inDim + j) -= da * xs(r)(j); j += 1 }
            b1(i) -= da
          }
          w2(i) -= dLogit * a(i)
          i += 1
        }
        b2 -= dLogit
        r += 1
      }
      e += 1
    }
  }
}

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
  * `fit` orders the support set by p once, with a stable counting sort, in
  * O(n + max p), and gives every distinct support array (by identity) a
  * point id that stays the same across refits; it indexes the rows by point
  * id (ascending positions per id). Each query array keeps one record: its
  * threshold at the latest fit, its squared distance to every point id it
  * has met, computed once per (query, point) pair, and its near list.
  *
  * A query's first threshold is a full O(n) pass: the k-th smallest
  * distance from a k-slot buffer, kernel weights, and the cut sweep, in
  * reused primitive buffers. A row whose exponent is beyond -746 weighs
  * exactly 0.0 (`exp` underflows there); the sweep skips it, which leaves
  * every error it compares unchanged. The pass records the near list: the
  * point ids within the reach R = 2 * 1492 * sigma^2, twice the squared
  * distance at which a weight underflows. Every later threshold files the
  * points added since, then works on the near points' rows alone: the
  * bandwidth from their distances, then the sweep over their rows that
  * can weigh more than 0.0, in support order. That gives the full pass's
  * bits as long as the near rows hold the k nearest, every point beyond R
  * still underflows (R / (2 sigma^2) > 746), and no point with a NaN
  * distance has rows; otherwise the threshold falls back to a full pass,
  * which records the list afresh. It also falls back when the near points
  * hold more than n / 8 rows, where sorting them would cost more than the
  * pass. So a threshold costs time in proportion to the rows the kernel
  * reaches, not to n.
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
  private var groupEnd: Array[Int] = Array.empty
  // The rows by point id: point `id` has the positions
  // rowsAt(rowStart(id) until rowStart(id + 1)), ascending.
  private var rowStart: Array[Int] = Array(0)
  private var rowsAt: Array[Int] = Array.empty
  private var fits = 0
  // The previous fit's rows in input order, with their point ids: a refit
  // on the same rows plus appended ones, as a session's history grows,
  // finds each kept row's id without a hash lookup.
  private var lastRows: Array[TrainRow] = Array.empty
  private var lastIds: Array[Int] = Array.empty
  // Point ids of the support arrays met since the last renumbering, and
  // each id's array.
  private val pointIds = new java.util.IdentityHashMap[Array[Double], Integer]()
  private var points: Array[Array[Double]] = Array.empty
  private val queries = new java.util.IdentityHashMap[Array[Double], Query]()
  private var held = 0L // distances held by all query records
  private[core] def memoSize: Long = held
  // Thresholds taken on the near path, and its refusals by cause.
  private var nearHits = 0L
  private val refused = new Array[Long](4)
  private[core] def nearThresholds: Long = nearHits
  private[core] def refusals(cause: Int): Long = refused(cause)
  // Per-threshold scratch: squared distances, then kernel weights in place,
  // and the positions of the rows the sweep reads.
  private var weights: Array[Double] = Array.empty
  private var reached: Array[Int] = Array.empty
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
    // Stable counting sort: start(p) is the first slot of parallelism p,
    // and the end of its group once the rows are placed.
    val start = new Array[Int](maxP + 2)
    i = 0
    while (i < n) { start(data(i).p + 1) += 1; i += 1 }
    var p = 1
    while (p <= maxP) { start(p + 1) += start(p); p += 1 }
    hs = new Array[Array[Double]](n)
    ps = new Array[Int](n)
    positive = new Array[Boolean](n)
    ids = new Array[Int](n)
    val rows = new Array[TrainRow](n)
    val rowIds = new Array[Int](n)
    i = 0
    while (i < n) {
      val r = data(i)
      val id = if (i < lastRows.length && (lastRows(i) eq r)) lastIds(i) else pointId(r.h)
      val at = start(r.p)
      start(r.p) = at + 1
      hs(at) = r.h
      ps(at) = r.p
      positive(at) = r.label == 1
      ids(at) = id
      rows(i) = r
      rowIds(i) = id
      i += 1
    }
    groupEnd = start
    lastRows = rows
    lastIds = rowIds
    index()
    if (weights.length < n) { weights = new Array[Double](n); reached = new Array[Int](n) }
    fits += 1
  }

  private def pointId(h: Array[Double]): Int = {
    val known = pointIds.get(h)
    if (known != null) known.intValue()
    else {
      val id = pointIds.size
      pointIds.put(h, id)
      if (id == points.length) points = java.util.Arrays.copyOf(points, math.max(64, 2 * id))
      points(id) = h
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
    held = 0
    pointIds.clear()
    points = new Array[Array[Double]](points.length)
    lastRows = Array.empty
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
    if (q == null) { val fresh = new Query(dist); queries.put(h, fresh); fresh }
    else { q.dist = dist; q }
  }

  /** The monotone cut t(h) in pNorm (log10 p) units: predicted bottleneck
    * iff pNorm(p) < t(h).
    */
  def threshold(h: Array[Double]): Double = {
    val q = record(h)
    if (q.fit != fits) {
      val t = if (q.fit < 0) Double.NaN else nearThreshold(h, q)
      q.t = if (java.lang.Double.isNaN(t)) fullThreshold(h, q) else t
      q.fit = fits
    }
    q.t
  }

  private def distance(h: Array[Double], hi: Array[Double]): Double = {
    var s = 0.0; var j = 0
    while (j < embedDim) { val d = h(j) - hi(j); s += d * d; j += 1 }
    s
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

  /** The threshold from a pass over every support row; records q's near
    * list.
    */
  private def fullThreshold(h: Array[Double], q: Query): Double = {
    val n = ps.length
    if (n == 0) return -0.5
    val dist = q.dist
    val w = weights
    // Adaptive RBF bandwidth: squared distance to the k-th nearest row. A
    // NaN distance is never kept, as if sorted after every number.
    val k = math.max(1, math.min(kNeighbors, n - 1))
    var kept = 0
    var i = 0
    while (i < n) {
      val id = ids(i)
      var s = dist(id)
      if (s == unknown) { s = distance(h, hs(i)); dist(id) = s }
      w(i) = s
      if (if (kept < k) !java.lang.Double.isNaN(s) else s < nearest(k - 1)) kept = keepNearest(s, kept, k)
      i += 1
    }
    val sigma2 = math.max(1e-9, if (kept == k) nearest(k - 1) else Double.NaN)
    q.reach = 2.0 * 1492.0 * sigma2
    q.near.size = 0
    q.nan.size = 0
    q.classified = 0
    classify(h, q)
    // Kernel weights; exp(-x) is exactly 0.0 for x > 746, so those rows are
    // left out of the sweep. A NaN weight is kept.
    val at = reached
    var m = 0
    i = 0
    while (i < n) {
      val x = w(i) / (2.0 * sigma2)
      if (!(x > 746.0)) { w(i) = math.exp(-x); at(m) = i; m += 1 }
      i += 1
    }
    sweep(m)
  }

  /** Files the point ids q has not met yet under its near or NaN list. */
  private def classify(h: Array[Double], q: Query): Unit = {
    val dist = q.dist
    val count = pointIds.size
    var id = q.classified
    while (id < count) {
      var s = dist(id)
      if (s == unknown) { s = distance(h, points(id)); dist(id) = s }
      if (s <= q.reach) q.near.add(id)
      else if (java.lang.Double.isNaN(s)) q.nan.add(id)
      id += 1
    }
    q.classified = count
  }

  /** The full pass's threshold from the rows of q's near points alone, or
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
    // The bandwidth as in the full pass, each near point counted once per
    // row; every other row lies beyond R.
    val k = math.max(1, math.min(kNeighbors, n - 1))
    var kept = 0
    var nearRows = 0
    i = 0
    while (i < nNear) {
      val id = near(i)
      val s = dist(id)
      var c = rowStart(id + 1) - rowStart(id)
      nearRows += c
      while (c > 0 && (kept < k || s < nearest(k - 1))) { kept = keepNearest(s, kept, k); c -= 1 }
      i += 1
    }
    if (kept < k) { refused(RefusedFew) += 1; return Double.NaN }
    // Sorting that many positions costs more than the full pass, which also
    // records a list as tight as the current bandwidth allows.
    if (nearRows > n / 8) { refused(RefusedCrowded) += 1; return Double.NaN }
    val sigma2 = math.max(1e-9, nearest(k - 1))
    if (!(q.reach / (2.0 * sigma2) > 746.0)) { refused(RefusedReach) += 1; return Double.NaN }
    // The rows whose weight can be nonzero, in support order.
    val w = weights
    val at = reached
    var m = 0
    i = 0
    while (i < nNear) {
      val id = near(i)
      val x = dist(id) / (2.0 * sigma2)
      if (!(x > 746.0)) {
        val wt = math.exp(-x)
        var r = rowStart(id)
        val end = rowStart(id + 1)
        while (r < end) { val pos = rowsAt(r); w(pos) = wt; at(m) = pos; m += 1; r += 1 }
      }
      i += 1
    }
    java.util.Arrays.sort(at, 0, m)
    nearHits += 1
    sweep(m)
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
  /** Marks a distance not yet computed; squared distances are >= 0 or NaN. */
  private val unknown = -1.0
  /** Causes of a near-path refusal: a point with a NaN distance has rows;
    * the near points hold fewer than k rows; they hold more than n / 8; a
    * point beyond the reach might not underflow.
    */
  private[core] val RefusedNan     = 0
  private[core] val RefusedFew     = 1
  private[core] val RefusedCrowded = 2
  private[core] val RefusedReach   = 3

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

  /** One query embedding: its squared distance to each point id, its
    * threshold as of fit number `fit`, and the point ids it has classified
    * (the first `classified`) by distance: within `reach`, or NaN.
    */
  private final class Query(var dist: Array[Double]) {
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

package repro.core

import repro.dataflow.DetRandom

/** GED-based K-means over dataflow DAGs with similarity-center updates
  * (§IV-C).
  *
  * Cluster centroids are *similarity centers* (Definition 2): the member
  * DAG appearing most often across the tau-threshold similarity-search
  * results of all members — an approximate median graph that avoids
  * averaging graphs.
  */
object Clustering {

  final case class Result(
      centers: Vector[Int],              // indices into `graphs`
      assignment: Vector[Int],           // graph index -> cluster id
      wcss: Double,                      // sum of squared distances to centers
  )

  /** Appearance count C_g of Definition 2 for every member of `cluster`. */
  def appearanceCounts(
      graphs: IndexedSeq[LabeledGraph],
      cluster: Seq[Int],
      tau: Double,
      useLsa: Boolean = true,
  ): Map[Int, Int] = countsOf(cluster, searchWithin(graphs, tau, useLsa))

  /** Similarity center (Definition 2): argmax appearance count, ties broken
    * by lowest index for determinism.
    */
  def similarityCenter(
      graphs: IndexedSeq[LabeledGraph],
      cluster: Seq[Int],
      tau: Double,
      useLsa: Boolean = true,
  ): Int = centerOf(cluster, searchWithin(graphs, tau, useLsa))

  /** K-means over graphs under (bounded) GED. Initialization picks k seeded
    * distinct graphs; update recomputes similarity centers; stops on stable
    * centers or `maxIter`. Each pair's within-tau verdict is searched at most
    * once per call.
    */
  def kmeans(
      graphs: IndexedSeq[LabeledGraph],
      k: Int,
      tau: Double = 5.0,
      seed: Long = 3,
  ): Result = kmeansWith(graphs, k, seed, new Verdicts(graphs, tau))

  private val maxIter = 10

  private def kmeansWith(
      graphs: IndexedSeq[LabeledGraph],
      k: Int,
      seed: Long,
      verdicts: Verdicts,
  ): Result = {
    require(k >= 1 && k <= graphs.size, s"k=$k out of range for ${graphs.size} graphs")
    // Seeded distinct initial centers.
    var centers = {
      val picked = scala.collection.mutable.LinkedHashSet.empty[Int]
      var t = 0
      while (picked.size < k) {
        picked += (DetRandom.unit(seed, "init", t) * graphs.size).toInt.min(graphs.size - 1)
        t += 1
      }
      picked.toVector
    }
    var assignment = Vector.empty[Int]
    var iter = 0
    var stable = false
    while (!stable && iter < maxIter) {
      assignment = graphs.indices.map { gi =>
        centers.indices.minBy(c => (Ged.distance(graphs(gi), graphs(centers(c))), c))
      }.toVector
      val newCenters = centers.indices.map { c =>
        val members = graphs.indices.filter(assignment(_) == c)
        if (members.isEmpty) centers(c)
        else centerOf(members, verdicts.within)
      }.toVector
      stable = newCenters == centers
      centers = newCenters
      iter += 1
    }
    val wcss = graphs.indices.map { gi =>
      val d = Ged.distance(graphs(gi), graphs(centers(assignment(gi))))
      d * d
    }.sum
    Result(centers, assignment, wcss)
  }

  /** Elbow method (§V-A): pick the k whose WCSS curve has the largest
    * second difference (the sharpest bend) over `kRange`. The k sweep
    * shares one verdict table.
    */
  def elbowK(
      graphs: IndexedSeq[LabeledGraph],
      kRange: Range,
      tau: Double = 5.0,
      seed: Long = 3,
  ): Int = {
    val ks = kRange.filter(k => k >= 1 && k <= graphs.size).toVector
    require(ks.nonEmpty, "no valid k in range")
    if (ks.size <= 2) return ks.head
    val verdicts = new Verdicts(graphs, tau)
    val wcss = ks.map(k => kmeansWith(graphs, k, seed, verdicts).wcss)
    val bends = (1 until ks.size - 1).map { i =>
      (wcss(i - 1) - wcss(i)) - (wcss(i) - wcss(i + 1))
    }
    ks(1 + bends.indices.maxBy(bends))
  }

  /** The similarity search's verdict "GED(graphs(q), graphs(g)) <= tau",
    * searched afresh on every call.
    */
  private def searchWithin(graphs: IndexedSeq[LabeledGraph], tau: Double, useLsa: Boolean)
      : (Int, Int) => Boolean =
    if (useLsa) (q, g) => Ged.withinThreshold(graphs(q), graphs(g), tau)
    else (q, g) => Ged.ged(graphs(q), graphs(g), useLsa = false) <= tau

  /** Within-tau verdicts of one clustering call, each searched (A*-LSa) on
    * first use. Keyed by the ordered pair of structures: `Ged.ged` reads
    * only labels and edges, so equal graphs share a verdict. A table lives
    * for one `kmeans` or `elbowK` call and is never global: timing
    * `similarityCenter` (Fig. 11b) must keep timing the searches.
    */
  private final class Verdicts(graphs: IndexedSeq[LabeledGraph], tau: Double) {
    private val structure: Array[Int] = {
      val ids = scala.collection.mutable.HashMap.empty[LabeledGraph, Int]
      graphs.map(g => ids.getOrElseUpdate(g, ids.size)).toArray
    }
    private val m = if (structure.isEmpty) 0 else structure.max + 1
    private val known = new Array[Byte](m * m) // 0 not yet searched, 1 outside, 2 within

    def within(q: Int, g: Int): Boolean = {
      val i = structure(q) * m + structure(g)
      if (known(i) == 0) known(i) = if (Ged.withinThreshold(graphs(q), graphs(g), tau)) 2 else 1
      known(i) == 2
    }
  }

  private def countsOf(cluster: Seq[Int], within: (Int, Int) => Boolean): Map[Int, Int] = {
    val counts = scala.collection.mutable.Map(cluster.map(_ -> 0): _*)
    for (q <- cluster; g <- cluster) if (within(q, g)) counts(g) += 1
    counts.toMap
  }

  private def centerOf(cluster: Seq[Int], within: (Int, Int) => Boolean): Int = {
    require(cluster.nonEmpty, "empty cluster has no similarity center")
    val counts = countsOf(cluster, within)
    cluster.maxBy(g => (counts(g), -g))
  }
}

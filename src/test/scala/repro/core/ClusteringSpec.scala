package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow.DetRandom
import repro.workloads.{Nexmark, Pqp}

object ClusteringFixtures {
  /** K-means as it ran before within-tau verdicts were kept per call: every
    * similarity-center update re-runs the A*-LSa search for every member
    * pair. The body is kept verbatim as the oracle the memoized `kmeans`
    * must match bit for bit.
    */
  def referenceKmeans(
      graphs: IndexedSeq[LabeledGraph],
      k: Int,
      tau: Double = 5.0,
      maxIter: Int = 10,
      seed: Long = 3,
  ): Clustering.Result = {
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
        else Clustering.similarityCenter(graphs, members, tau)
      }.toVector
      stable = newCenters == centers
      centers = newCenters
      iter += 1
    }
    val wcss = graphs.indices.map { gi =>
      val d = Ged.distance(graphs(gi), graphs(centers(assignment(gi))))
      d * d
    }.sum
    Clustering.Result(centers, assignment, wcss)
  }

  /** The elbow sweep over [[referenceKmeans]], also kept verbatim. */
  def referenceElbowK(graphs: IndexedSeq[LabeledGraph], kRange: Range, tau: Double, seed: Long): Int = {
    val ks = kRange.filter(k => k >= 1 && k <= graphs.size).toVector
    require(ks.nonEmpty, "no valid k in range")
    if (ks.size <= 2) return ks.head
    val wcss = ks.map(k => referenceKmeans(graphs, k, tau, seed = seed).wcss)
    val bends = (1 until ks.size - 1).map { i =>
      (wcss(i - 1) - wcss(i)) - (wcss(i) - wcss(i + 1))
    }
    ks(1 + bends.indices.maxBy(bends))
  }

  private val labels = Vector("Source", "Map", "Filter", "Join", "Sink")

  /** A small random DAG: 1–5 nodes, edges only from lower to higher index. */
  val genGraph: Gen[LabeledGraph] = for {
    n    <- Gen.choose(1, 5)
    ls   <- Gen.listOfN(n, Gen.oneOf(labels))
    pairs = for (u <- 0 until n; v <- u + 1 until n) yield (u, v)
    keep <- Gen.listOfN(pairs.size, Gen.prob(0.4))
  } yield LabeledGraph(ls.toVector, pairs.zip(keep).collect { case (e, true) => e }.toVector)

  /** 2–9 graphs drawn from 1–4 structures, so duplicates are common; each
    * duplicate is a fresh instance equal to its structure.
    */
  val genPopulation: Gen[Vector[LabeledGraph]] = for {
    bases <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, genGraph))
    n     <- Gen.choose(2, 9)
    picks <- Gen.listOfN(n, Gen.oneOf(bases))
  } yield picks.map(g => g.copy()).toVector
}

class ClusteringSpec extends AnyFunSuite {

  // Mixed population: 8 linear chains, 8 two-way joins, 5 Nexmark queries.
  private lazy val graphs =
    (Pqp.linears ++ Pqp.twoWayJoins.take(8) ++ Nexmark.all).map(w => LabeledGraph.from(w.dag))

  test("kmeans assigns every graph to a valid cluster") {
    val r = Clustering.kmeans(graphs, k = 3)
    assert(r.assignment.size == graphs.size)
    assert(r.assignment.forall(c => c >= 0 && c < 3))
    assert(r.centers.size == 3)
  }

  test("kmeans is deterministic in its seed") {
    val a = Clustering.kmeans(graphs, k = 3, seed = 5)
    val b = Clustering.kmeans(graphs, k = 3, seed = 5)
    assert(a == b)
  }

  test("each graph is nearest to its own cluster's center") {
    val r = Clustering.kmeans(graphs, k = 3)
    graphs.indices.foreach { i =>
      val own = Ged.distance(graphs(i), graphs(r.centers(r.assignment(i))))
      r.centers.foreach { c =>
        assert(own <= Ged.distance(graphs(i), graphs(c)) + 1e-9)
      }
    }
  }

  test("identical-structure graphs land in the same cluster") {
    val r = Clustering.kmeans(graphs, k = 3)
    // linear(0) and linear(6) share chain length AND map/flatMap pattern.
    val sameShape = Seq(0, 6)
    val clustersOf = sameShape.map(r.assignment)
    assert(clustersOf.distinct.size == 1)
  }

  test("similarity center maximizes the appearance count (Definition 2)") {
    val cluster = graphs.indices.take(10)
    val counts = Clustering.appearanceCounts(graphs, cluster, tau = 5.0)
    val sc = Clustering.similarityCenter(graphs, cluster, tau = 5.0)
    assert(counts(sc) == counts.values.max)
  }

  test("appearance count of a graph includes itself (ged = 0 <= tau)") {
    val cluster = graphs.indices.take(6)
    val counts = Clustering.appearanceCounts(graphs, cluster, tau = 1.0)
    cluster.foreach(i => assert(counts(i) >= 1))
  }

  test("direct and LSa similarity centers agree") {
    val cluster = graphs.indices.take(8)
    val a = Clustering.similarityCenter(graphs, cluster, tau = 5.0, useLsa = true)
    val b = Clustering.similarityCenter(graphs, cluster, tau = 5.0, useLsa = false)
    assert(a == b)
  }

  test("wcss decreases (weakly) as k grows") {
    val w2 = Clustering.kmeans(graphs, k = 2).wcss
    val w5 = Clustering.kmeans(graphs, k = 5).wcss
    assert(w5 <= w2 + 1e-9)
  }

  test("elbowK returns a k inside the requested range") {
    val k = Clustering.elbowK(graphs, 2 to 5)
    assert(k >= 2 && k <= 5)
  }

  test("singleton population clusters trivially") {
    val solo = IndexedSeq(graphs.head)
    val r = Clustering.kmeans(solo, k = 1)
    assert(r.assignment == Vector(0) && r.wcss == 0.0)
  }

  test("kmeans with per-call verdicts equals the unmemoized kmeans bit for bit") {
    import ClusteringFixtures._
    var emptyClusters = 0
    val gen = for {
      pop  <- genPopulation
      k    <- Gen.choose(1, pop.size)
      tau  <- Gen.oneOf(1.0, 3.0, 5.0)
      seed <- Gen.choose(0L, 1000L)
    } yield (pop, k, tau, seed)
    val prop = Prop.forAllNoShrink(gen) { case (pop, k, tau, seed) =>
      val a = Clustering.kmeans(pop, k, tau, seed = seed)
      val b = referenceKmeans(pop, k, tau, seed = seed)
      if ((0 until k).exists(c => !a.assignment.contains(c))) emptyClusters += 1
      a.centers == b.centers && a.assignment == b.assignment &&
        java.lang.Double.doubleToLongBits(a.wcss) == java.lang.Double.doubleToLongBits(b.wcss) &&
        Clustering.elbowK(pop, 1 to pop.size, tau, seed) == referenceElbowK(pop, 1 to pop.size, tau, seed)
    }
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(20251019L)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
    assert(emptyClusters > 0, "no generated input left a cluster empty")
  }

  test("empty cluster has no similarity center") {
    assertThrows[IllegalArgumentException](
      Clustering.similarityCenter(graphs, Seq.empty, tau = 5.0))
  }
}

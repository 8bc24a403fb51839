package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.workloads.{Nexmark, Pqp, Workloads}

class GedSpec extends AnyFunSuite {

  private def g(labels: String*)(edges: (Int, Int)*): LabeledGraph =
    LabeledGraph(labels.toVector, edges.toVector)

  private val chainABC = g("source", "map", "sink")((0, 1), (1, 2))

  test("GED to itself is zero") {
    assert(Ged.ged(chainABC, chainABC) == 0.0)
    Workloads.all.take(10).foreach { w =>
      val lg = LabeledGraph.from(w.dag)
      assert(Ged.ged(lg, lg) == 0.0)
    }
  }

  test("single node relabel (operator type modification) costs 1") {
    val other = g("source", "filter", "sink")((0, 1), (1, 2))
    assert(Ged.ged(chainABC, other) == 1.0)
  }

  test("single edge deletion costs 1") {
    val missing = g("source", "map", "sink")((0, 1))
    assert(Ged.ged(chainABC, missing) == 1.0)
  }

  test("single node insertion costs 1 plus its edges") {
    val longer = g("source", "map", "map", "sink")((0, 1), (1, 2), (2, 3))
    // Insert one 'map' node; edge structure changes by one delete + two adds
    // or equivalently: best edit sequence costs 3 (node + edge rewires).
    val d = Ged.ged(chainABC, longer)
    assert(d >= 1.0 && d <= 3.0)
  }

  test("edge direction modification costs 1, not 2") {
    // Distinct labels pin the node mapping, so only the edge flips.
    val fwd = g("source", "sink")((0, 1))
    val rev = g("source", "sink")((1, 0))
    assert(Ged.ged(fwd, rev) == 1.0)
  }

  test("empty vs n-node graph costs n plus edges") {
    val empty = g()()
    assert(Ged.ged(empty, chainABC) == 5.0) // 3 nodes + 2 edges
    assert(Ged.ged(chainABC, empty) == 5.0)
  }

  test("symmetry on workload DAG pairs") {
    val graphs = (Nexmark.all ++ Pqp.all.take(6)).map(w => LabeledGraph.from(w.dag))
    for (a <- graphs; b <- graphs) {
      assert(Ged.ged(a, b) == Ged.ged(b, a), s"asymmetric pair")
    }
  }

  test("triangle inequality on a workload sample") {
    val graphs = (Nexmark.all ++ Pqp.linears.take(3)).map(w => LabeledGraph.from(w.dag))
    for (a <- graphs; b <- graphs; c <- graphs) {
      assert(Ged.ged(a, c) <= Ged.ged(a, b) + Ged.ged(b, c) + 1e-9)
    }
  }

  test("direct (h=0) and LSa-guided searches agree") {
    val graphs = (Nexmark.all ++ Pqp.linears.take(2)).map(w => LabeledGraph.from(w.dag))
    for (a <- graphs; b <- graphs) {
      assert(Ged.ged(a, b, useLsa = false) == Ged.ged(a, b, useLsa = true))
    }
  }

  test("withinThreshold matches the exact distance") {
    val graphs = Nexmark.all.map(w => LabeledGraph.from(w.dag))
    for (a <- graphs; b <- graphs) {
      val d = Ged.ged(a, b)
      assert(Ged.withinThreshold(a, b, 5.0) == (d <= 5.0), s"d=$d")
    }
  }

  test("threshold search prunes: bounded result exceeds the bound when far") {
    val big   = LabeledGraph.from(Pqp.threeWayJoin(0).dag)
    val small = LabeledGraph.from(Nexmark.q1.dag)
    val d = Ged.ged(small, big, bound = 2.0)
    assert(d > 2.0)
  }

  test("distance is capped and memoized consistently") {
    val a = LabeledGraph.from(Nexmark.q1.dag)
    val b = LabeledGraph.from(Pqp.threeWayJoin(1).dag)
    val d1 = Ged.distance(a, b)
    assert(d1 == math.min(40.0, Ged.ged(a, b)))
    assert(Ged.distance(a, b) == d1 && Ged.distance(b, a) == d1)
  }

  test("structurally similar PQP variants are closer than cross-template pairs") {
    val l0 = LabeledGraph.from(Pqp.linear(0).dag)
    val l1 = LabeledGraph.from(Pqp.linear(3).dag)
    val j0 = LabeledGraph.from(Pqp.threeWayJoin(0).dag)
    assert(Ged.ged(l0, l1) < Ged.ged(l0, j0))
  }

  test("identical structure with different windows still matches (labels only)") {
    // GED sees operator types, not window params, per the clustering view.
    val a = LabeledGraph.from(Pqp.twoWayJoin(1).dag)
    val b = LabeledGraph.from(Pqp.twoWayJoin(3).dag)
    assert(Ged.ged(a, b) == 0.0)
  }

  test("LabeledGraph.from preserves node count and edges") {
    val w = Nexmark.q3
    val lg = LabeledGraph.from(w.dag)
    assert(lg.n == w.dag.ops.size)
    assert(lg.edges.size == w.dag.edges.size)
    assert(lg.labels.toSet.subsetOf(repro.dataflow.OpType.all.map(_.name).toSet))
  }

  test("budget exhaustion returns a lower bound, not garbage") {
    val a = LabeledGraph.from(Pqp.threeWayJoin(0).dag)
    val b = LabeledGraph.from(Pqp.threeWayJoin(5).dag)
    val exact = Ged.ged(a, b)
    val approx = Ged.ged(a, b, budget = 10)
    assert(approx <= exact + 1e-9)
  }
}

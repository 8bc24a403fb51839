package repro.workloads

import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow.{OpType, SimMode, Simulator}
import repro.harness.PaperTables

class WorkloadsSpec extends AnyFunSuite {

  // One validity test per workload — 61 structural checks.
  Workloads.all.foreach { w =>
    test(s"${w.key}: DAG is well-formed and simulable") {
      val dag = w.dag
      assert(dag.topo.length == dag.ops.size)
      assert(dag.sources.nonEmpty && dag.sinks.nonEmpty)
      assert(dag.sources.forall(_.opType == OpType.Source))
      // Every operator is reachable from some source.
      val reached = new Array[Boolean](dag.size)
      def visit(i: Int): Unit = if (!reached(i)) { reached(i) = true; dag.downstream(i).foreach(visit) }
      dag.sources.foreach(s => visit(dag.index(s.id)))
      assert(reached.forall(identity))
      // Simulable at every integer multiplier without errors.
      val par = dag.ops.map(_.id -> 2).toMap
      (1 to 10).foreach { m =>
        Simulator.run(dag, w.rates(m.toDouble, SimMode.Flink), par, SimMode.Flink)
      }
    }
  }

  test("workload counts match the paper: 5 Nexmark + 8 + 16 + 32 PQP") {
    assert(Nexmark.all.size == 5)
    assert(Pqp.linears.size == 8)
    assert(Pqp.twoWayJoins.size == 16)
    assert(Pqp.threeWayJoins.size == 32)
    assert(Workloads.all.size == 61)
  }

  test("workload keys are unique") {
    assert(Workloads.all.map(_.key).distinct.size == 61)
  }

  test("every workload is feasible at 10Wu within max parallelism") {
    Workloads.all.foreach { w =>
      val par = w.dag.ops.map { op =>
        val p = if (op.opType == OpType.Source) 1 else 100
        op.id -> p
      }.toMap
      val r = Simulator.run(w.dag, w.rates(10, SimMode.Flink), par, SimMode.Flink)
      assert(!r.jobBackpressure, s"${w.key} infeasible even at max parallelism")
    }
  }

  test("Timely workloads are feasible at 10Wu within Timely max parallelism") {
    Nexmark.all.foreach { w =>
      val par = w.dag.ops.map { op =>
        op.id -> (if (op.opType == OpType.Source) 1 else 40)
      }.toMap
      val r = Simulator.run(w.dag, w.rates(10, SimMode.Timely), par, SimMode.Timely)
      assert(!r.jobBackpressure, s"${w.key} infeasible on Timely")
    }
  }

  test("Table II source-rate units match the paper exactly") {
    assert(PaperTables.tableIIFromCode == PaperTables.tableII)
  }

  test("PQP workloads have no Timely units; Nexmark ones do") {
    assert(Pqp.all.forall(_.unitsTimely.isEmpty))
    assert(Nexmark.all.forall(_.unitsTimely.isDefined))
    assertThrows[IllegalStateException](Pqp.linear(0).rates(1, SimMode.Timely))
  }

  test("rates scale linearly with the multiplier") {
    val w = Nexmark.q3
    val r1 = w.rates(1, SimMode.Flink)
    val r7 = w.rates(7, SimMode.Flink)
    r1.foreach { case (k, v) => assert(math.abs(r7(k) - 7 * v) < 1e-9) }
  }

  test("group lookup partitions the workload set") {
    assert(Workloads.groups.map(g => Workloads.byGroup(g).size).sum == 61)
    assert(Workloads.byKey("Q5").key == "Q5")
    assertThrows[NoSuchElementException](Workloads.byKey("Q99"))
  }

  test("template indices out of range are rejected") {
    assertThrows[IllegalArgumentException](Pqp.linear(8))
    assertThrows[IllegalArgumentException](Pqp.twoWayJoin(16))
    assertThrows[IllegalArgumentException](Pqp.threeWayJoin(32))
  }
}

class SourceRatesSpec extends AnyFunSuite {

  test("the basic cycle is the paper's ten multipliers") {
    assert(SourceRates.basicCycle == Vector(3, 7, 4, 2, 1, 10, 8, 5, 6, 9))
    assert(SourceRates.basicCycle.sorted == (1 to 10).toVector)
  }

  test("replication doubles the cycle to 20 entries") {
    assert(SourceRates.replicated.size == 20)
    (1 to 10).foreach(m => assert(SourceRates.replicated.count(_ == m) == 2))
  }

  test("the full pattern has 120 changes (6 permutations x 20)") {
    val p = SourceRates.pattern("Q1")
    assert(p.size == 120)
    (1 to 10).foreach(m => assert(p.count(_ == m) == 12))
  }

  test("patterns differ across queries but are deterministic per query") {
    assert(SourceRates.pattern("Q1") == SourceRates.pattern("Q1"))
    assert(SourceRates.pattern("Q1") != SourceRates.pattern("Q2"))
  }

  test("each 20-slot segment is a permutation of the replicated cycle") {
    val p = SourceRates.pattern("Q3")
    p.grouped(20).foreach { seg =>
      assert(seg.sorted == SourceRates.replicated.sorted)
    }
  }

  test("pattern honors the seed") {
    assert(SourceRates.pattern("Q1", seed = 1) != SourceRates.pattern("Q1", seed = 2))
  }
}

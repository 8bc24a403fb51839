package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow._
import repro.dataflow.TestDags

class LabelerSpec extends AnyFunSuite {

  private def par(d: Dag, p: Map[String, Int]): Map[String, Int] =
    d.ops.map(o => o.id -> p.getOrElse(o.id, 100)).toMap

  test("no backpressure labels every operator 0 (lines 2-6)") {
    val d = TestDags.chain()
    val r = Simulator.run(d, Map("src" -> 1e3), d.ops.map(_.id -> 10).toMap, SimMode.Flink)
    assert(!r.jobBackpressure)
    assert(Labeler.label(r).values.forall(_ == 0))
  }

  test("the paper's Fig. 3 example: hot downstream labeled 1, cold labeled 0") {
    val d = TestDags.fig3
    // o2 badly under-provisioned (hot), o3 generously provisioned (cold).
    val p = par(d, Map("o1" -> 100, "o2" -> 1, "o3" -> 100, "o4" -> 100))
    val r = Simulator.run(d, Map("src" -> 2e6), p, SimMode.Flink)
    assert(r.ops("o2").overloaded)
    assert(r.ops("o1").backpressured)
    val labels = Labeler.label(r)
    assert(labels("o2") == 1, "the 98%-CPU operator is the bottleneck")
    assert(labels("o3") == 0, "the 15%-CPU sibling is not")
  }

  test("operators upstream of the frontier stay unlabeled (-1)") {
    val d = TestDags.chain()
    // Bottleneck at 'b'; 'a' and 'src' are backpressured; nothing labels them.
    val p = Map("src" -> 1, "a" -> 100, "b" -> 1, "sink" -> 100)
    val r = Simulator.run(d, Map("src" -> 5e6), p, SimMode.Flink)
    val labels = Labeler.label(r)
    assert(labels("b") == 1)
    assert(labels("src") == -1)
    // 'a' is on the frontier itself (backpressured, downstream clean).
    assert(labels("a") == -1)
  }

  test("frontier = backpressured operators with no backpressured downstream") {
    val d = TestDags.chain()
    // Bottleneck at 'a': 'src' is backpressured AND its downstream 'a'... 'a'
    // is overloaded but not backpressured, so 'src' is the frontier and 'a'
    // gets labeled.
    val p = Map("src" -> 1, "a" -> 1, "b" -> 100, "sink" -> 100)
    val r = Simulator.run(d, Map("src" -> 5e6), p, SimMode.Flink)
    val labels = Labeler.label(r)
    assert(labels("a") == 1)
    assert(labels("b") == -1)
  }

  test("examined operators are labeled 1 exactly above the 60% CPU cut") {
    // o2 starved: o1 is the frontier, so o2 and o3 are examined. Sweeping
    // o3's parallelism moves its utilization across the cut.
    val d = TestDags.fig3
    val examined = (8 to 20).map { p3 =>
      val p = par(d, Map("o1" -> 100, "o2" -> 1, "o3" -> p3, "o4" -> 100))
      val r = Simulator.run(d, Map("src" -> 2e6), p, SimMode.Flink)
      assert(r.ops("o1").backpressured && !r.ops("o2").backpressured && !r.ops("o3").backpressured)
      val labels = Labeler.label(r)
      assert(labels("o2") == 1)
      r.ops("o3").utilization -> labels("o3")
    }
    examined.foreach { case (u, l) => assert(l == (if (u > SimConstants.cpuThreshold) 1 else 0), s"util $u") }
    // Both sides of the cut are hit within 5 points of it.
    assert(examined.exists { case (u, _) => u > 0.60 && u < 0.65 })
    assert(examined.exists { case (u, _) => u > 0.55 && u <= 0.60 })
  }

  test("labels cover exactly the operator set") {
    val d = TestDags.diamond
    val r = Simulator.run(d, Map("s1" -> 1e3, "s2" -> 1e3),
      d.ops.map(_.id -> 5).toMap, SimMode.Flink)
    assert(Labeler.label(r).keySet == d.ops.map(_.id).toSet)
  }

  test("multi-bottleneck: each frontier's downstream is examined") {
    val d = TestDags.diamond
    // Both filters under-provisioned: sources are the frontier.
    val p = Map("s1" -> 1, "s2" -> 1, "f1" -> 1, "f2" -> 1, "j" -> 100, "k" -> 100)
    val r = Simulator.run(d, Map("s1" -> 5e6, "s2" -> 5e6), p, SimMode.Flink)
    val labels = Labeler.label(r)
    assert(labels("f1") == 1 && labels("f2") == 1)
  }

  test("labels agree with ground-truth overload on labeled operators") {
    // Wherever Algorithm 1 assigns 1, the operator is genuinely overloaded.
    val wl = repro.workloads.Pqp.twoWayJoin(3)
    (0 until 30).foreach { i =>
      val p = wl.dag.ops.map { o =>
        o.id -> (if (o.opType == OpType.Source) 1 else 1 + (DetRandom.mix("t", i, o.id) % 20).toInt.abs)
      }.toMap
      val r = Simulator.run(wl.dag, wl.rates(5, SimMode.Flink), p, SimMode.Flink)
      Labeler.label(r).foreach { case (id, l) =>
        if (l == 1) assert(r.ops(id).overloaded || r.ops(id).utilization > SimConstants.cpuThreshold)
      }
    }
  }
}

package repro.dataflow

import org.scalatest.funsuite.AnyFunSuite

object TestDags {
  /** src -> a -> b -> sink chain with configurable selectivities. */
  def chain(selA: Double = 1.0, selB: Double = 1.0): Dag = Dag(
    "chain",
    Vector(
      Operator("src", OpType.Source),
      Operator("a", OpType.Map, selectivity = selA),
      Operator("b", OpType.Filter, selectivity = selB),
      Operator("sink", OpType.Sink),
    ),
    Vector("src" -> "a", "a" -> "b", "b" -> "sink"),
  )

  /** Fig. 3's shape: o1 -> {o2, o3}, o3 -> o4. */
  def fig3: Dag = Dag(
    "fig3",
    Vector(
      Operator("src", OpType.Source),
      Operator("o1", OpType.Map),
      Operator("o2", OpType.WindowAgg, selectivity = 0.5),
      Operator("o3", OpType.Filter, selectivity = 0.5),
      Operator("o4", OpType.Sink),
    ),
    Vector("src" -> "o1", "o1" -> "o2", "o1" -> "o3", "o3" -> "o4"),
  )

  /** Two sources joining. */
  def diamond: Dag = Dag(
    "diamond",
    Vector(
      Operator("s1", OpType.Source),
      Operator("s2", OpType.Source),
      Operator("f1", OpType.Filter, selectivity = 0.5),
      Operator("f2", OpType.Filter, selectivity = 0.5),
      Operator("j", OpType.IncJoin, selectivity = 0.4),
      Operator("k", OpType.Sink),
    ),
    Vector("s1" -> "f1", "s2" -> "f2", "f1" -> "j", "f2" -> "j", "j" -> "k"),
  )
}

class DagSpec extends AnyFunSuite {
  import TestDags._

  test("topological order respects every edge") {
    val d = diamond
    val pos = new Array[Int](d.size)
    d.topo.indices.foreach(k => pos(d.topo(k)) = k)
    d.edges.foreach { case (a, b) => assert(pos(d.index(a)) < pos(d.index(b))) }
  }

  test("topological order contains every operator exactly once") {
    assert(chain().topo.sorted.toSeq == chain().ops.indices)
  }

  test("sources are the operators without in-edges") {
    assert(diamond.sources.map(_.id).toSet == Set("s1", "s2"))
  }

  test("sinks are the operators without out-edges") {
    assert(fig3.sinks.map(_.id).toSet == Set("o2", "o4"))
  }

  test("upstream and downstream adjacency are inverses") {
    val d = diamond
    d.ops.indices.foreach { i =>
      d.downstream(i).foreach(dn => assert(d.upstream(dn).contains(i)))
      d.upstream(i).foreach(up => assert(d.downstream(up).contains(i)))
    }
  }

  test("index maps ids to positions; adjacency keeps edge order") {
    val d = fig3
    assert(d.ops.indices.forall(i => d.index(d.ops(i).id) == i))
    assert(d.downstream(d.index("o1")).toSeq == Seq("o2", "o3").map(d.index))
    assert(d.upstream(d.index("o4")).toSeq == Seq(d.index("o3")))
    assert(d.upstream(d.index("src")).isEmpty)
  }

  test("cycles are rejected") {
    val bad = Dag("cycle",
      Vector(Operator("a", OpType.Map), Operator("b", OpType.Map)),
      Vector("a" -> "b", "b" -> "a"))
    assertThrows[IllegalArgumentException](bad.topo)
  }

  test("duplicate operator ids are rejected") {
    assertThrows[IllegalArgumentException] {
      Dag("dup", Vector(Operator("a", OpType.Map), Operator("a", OpType.Filter)), Vector.empty)
    }
  }

  test("edges referencing unknown operators are rejected") {
    assertThrows[IllegalArgumentException] {
      Dag("bad", Vector(Operator("a", OpType.Map)), Vector("a" -> "zzz"))
    }
  }

  test("operator type vocabulary is stable and distinct") {
    assert(OpType.all.map(_.name).distinct.size == OpType.all.size)
    OpType.all.foreach(t => assert(OpType.fromName(t.name) eq t))
    assertThrows[IllegalArgumentException](OpType.fromName("nope"))
  }

  test("stateful flags: joins, windows and aggregates are stateful") {
    assert(Set[OpType](OpType.IncJoin, OpType.WindowJoin, OpType.WindowAgg, OpType.Agg)
      .forall(_.stateful))
    assert(Set[OpType](OpType.Source, OpType.Map, OpType.Filter, OpType.FlatMap, OpType.Sink)
      .forall(!_.stateful))
  }
}

class DetRandomSpec extends AnyFunSuite {
  test("unit is deterministic in its arguments") {
    assert(DetRandom.unit("a", 1, 2L) == DetRandom.unit("a", 1, 2L))
  }

  test("unit stays in [0, 1)") {
    (0 until 1000).foreach { i =>
      val u = DetRandom.unit("x", i)
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("signed stays in [-1, 1] and is roughly centered") {
    val xs = (0 until 2000).map(i => DetRandom.signed("y", i))
    assert(xs.forall(x => x >= -1.0 && x <= 1.0))
    assert(math.abs(xs.sum / xs.size) < 0.05)
  }

  test("different argument tuples give different hashes") {
    val vals = (0 until 500).map(i => DetRandom.mix("k", i)).toSet
    assert(vals.size == 500)
  }

  test("the typed unit and signed give the bits of the varargs forms") {
    import org.scalacheck.{Gen, Prop}
    val genLong = Gen.oneOf(Gen.choose(Long.MinValue, Long.MaxValue), Gen.choose(-1000L, 1000L),
      Gen.oneOf(0L, -1L, 1L << 32, -(1L << 32), Int.MaxValue.toLong + 1, Int.MinValue.toLong - 1,
        Long.MaxValue, Long.MinValue))
    val genInt = Gen.oneOf(Gen.choose(Int.MinValue, Int.MaxValue), Gen.choose(-5, 200))
    val genId = Gen.oneOf(Gen.alphaNumStr, Gen.const(""), Gen.oneOf("src", "join", "Q5", "3-way-join-8"))
    val bits = java.lang.Double.doubleToLongBits _
    val prop = Prop.forAll(genLong, genId, genId, genInt, genLong, genId) { (seed, dag, op, p, epoch, tag) =>
      val varUnit: Seq[Any] = Seq(seed, dag, op, p, epoch, tag)
      val varSigned: Seq[Any] = Seq(seed, dag, op, epoch, tag)
      bits(DetRandom.unit(seed, dag, op, p, epoch, tag)) == bits(DetRandom.unit(varUnit: _*)) &&
        bits(DetRandom.signed(seed, dag, op, epoch, tag)) == bits(DetRandom.signed(varSigned: _*))
    }
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }
}

package repro.dataflow

/** Logical dataflow operator types, mirroring the operator vocabulary of the
  * paper's workloads (Nexmark §V-A: map, filter, incremental join, sliding /
  * tumbling window joins; PQP: source, filter, join, aggregate).
  *
  * Each type carries a base per-core processing rate (records/second of
  * *useful time* per unit of parallelism) used by the simulator substrate.
  * Stateless operators scale near-linearly with parallelism; stateful ones
  * (joins, windows) pay a coordination penalty — see [[SimConstants]].
  */
sealed abstract class OpType(val name: String, val baseRate: Double, val stateful: Boolean)

object OpType {
  // Sources are generators: an under-provisioned source causes consumer lag,
  // not backpressure, so the substrate treats them as never-bottlenecked and
  // every tuner pins them at parallelism 1.
  case object Source     extends OpType("source",            1e12, stateful = false)
  case object Map        extends OpType("map",           200_000d, stateful = false)
  case object Filter     extends OpType("filter",        250_000d, stateful = false)
  case object FlatMap    extends OpType("flatMap",       120_000d, stateful = false)
  case object IncJoin    extends OpType("incJoin",        60_000d, stateful = true)
  case object WindowJoin extends OpType("windowJoin",     35_000d, stateful = true)
  case object WindowAgg  extends OpType("windowAgg",      80_000d, stateful = true)
  case object Agg        extends OpType("agg",           150_000d, stateful = true)
  case object Sink       extends OpType("sink",          900_000d, stateful = false)

  /** All operator types, in a stable order (used for one-hot encoding). */
  val all: Vector[OpType] =
    Vector(Source, Map, Filter, FlatMap, IncJoin, WindowJoin, WindowAgg, Agg, Sink)

  def fromName(n: String): OpType =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(s"unknown op type: $n"))
}

/** Windowing characteristics of an operator (Table I: window type, policy,
  * length, sliding interval). `windowType` is "tumbling" or "sliding";
  * `policy` is "count" or "time". Lengths are in abstract units.
  */
final case class WindowSpec(
    windowType: String,
    policy: String,
    length: Double,
    slide: Double,
)

/** A logical dataflow operator with the full static feature set of Table I.
  *
  * `selectivity` is output-records-per-input-record (joins apply it to the
  * sum of both inputs). `costScale` multiplies the per-record cost of the
  * operator's type; the simulator derives it *deterministically from the
  * observable static features* (tuple widths, window length) so that a
  * learned model can, in principle, recover it — see
  * [[Simulator.costScale]].
  */
final case class Operator(
    id: String,
    opType: OpType,
    window: Option[WindowSpec] = None,
    joinKeyClass: String = "none",     // Table I: Join Key Class
    aggClass: String = "none",         // Table I: Aggregate Class
    aggKeyClass: String = "none",      // Table I: Aggregate Key Class
    aggFunction: String = "none",      // Table I: Aggregate Function
    tupleWidthIn: Int = 8,             // Table I: Tuple Width In
    tupleWidthOut: Int = 8,            // Table I: Tuple Width Out
    tupleDataType: String = "record",  // Table I: Tuple Data Type
    selectivity: Double = 1.0,
)

/** A logical dataflow DAG: operators plus directed edges (upstream ->
  * downstream). Parallelism is *not* part of the DAG — it is the quantity
  * being tuned, and is supplied per-run to the simulator.
  *
  * The DAG owns operator positions: operator `i` is `ops(i)`, and the
  * adjacency and topological order below are in positions. Maps keyed by
  * operator id exist only at the API edge (source rates, parallelisms,
  * metrics and labels).
  */
final case class Dag(
    name: String,
    ops: Vector[Operator],
    edges: Vector[(String, String)],
) {
  /** Operator id -> its position in `ops`. */
  val index: Map[String, Int] = ops.iterator.map(_.id).zipWithIndex.toMap
  require(index.size == ops.size, s"$name: duplicate operator ids")
  require(
    edges.forall { case (a, b) => index.contains(a) && index.contains(b) },
    s"$name: edge references unknown operator",
  )

  /** Positions each operator feeds, in edge order. */
  val downstream: Array[Array[Int]] = adjacency(edges)

  /** Positions feeding each operator, in edge order. */
  val upstream: Array[Array[Int]] = adjacency(edges.map(_.swap))

  private def adjacency(pairs: Vector[(String, String)]): Array[Array[Int]] = {
    val out = Array.fill(ops.size)(Array.newBuilder[Int])
    pairs.foreach { case (a, b) => out(index(a)) += index(b) }
    out.map(_.result())
  }

  /** Source operators: no in-edges. */
  lazy val sources: Vector[Operator] = ops.indices.filter(upstream(_).isEmpty).map(ops).toVector

  /** Sink operators: no out-edges. */
  lazy val sinks: Vector[Operator] = ops.indices.filter(downstream(_).isEmpty).map(ops).toVector

  /** Positions in topological order (Kahn's queue, seeded in `ops` order).
    * Fails on cycles (a dataflow DAG must be acyclic).
    */
  lazy val topo: Array[Int] = {
    val inDeg = upstream.map(_.length)
    val queue = scala.collection.mutable.Queue(ops.indices.filter(inDeg(_) == 0): _*)
    val out   = Array.newBuilder[Int]
    var seen  = 0
    while (queue.nonEmpty) {
      val i = queue.dequeue()
      out += i
      seen += 1
      downstream(i).foreach { d =>
        inDeg(d) -= 1
        if (inDeg(d) == 0) queue.enqueue(d)
      }
    }
    require(seen == ops.size, s"$name: dataflow graph contains a cycle")
    out.result()
  }

  def size: Int = ops.size
}

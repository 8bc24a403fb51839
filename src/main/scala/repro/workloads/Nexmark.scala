package repro.workloads

import repro.dataflow._

/** A tunable streaming job: its logical DAG plus the Table II source-rate
  * units (records/second at multiplier 1) for each deployment target.
  */
final case class Workload(
    key: String,               // e.g. "Q1", "Linear-3"
    group: String,             // "Q1".."Q8" | "Linear" | "2-way-join" | "3-way-join"
    dag: Dag,
    unitsFlink: Map[String, Double],
    unitsTimely: Option[Map[String, Double]],
) {
  /** Absolute source rates at multiplier `m` for the given mode. */
  def rates(m: Double, mode: SimMode): Map[String, Double] = {
    val units = mode match {
      case SimMode.Flink  => unitsFlink
      case SimMode.Timely =>
        unitsTimely.getOrElse(
          throw new IllegalStateException(s"$key has no Timely source-rate units"))
    }
    units.view.mapValues(_ * m).toMap
  }
}

/** Nexmark queries Q1, Q2, Q3, Q5, Q8 as logical dataflow DAGs (§V-A):
  * Q1/Q2 stateless map/filter, Q3 an incremental two-input join, Q5 a
  * sliding-window aggregation + join, Q8 a tumbling-window join.
  *
  * Selectivities (filter pass rates, window compression) are modelling
  * choices, not measured on Nexmark data; tuple widths approximate Nexmark
  * record sizes. Source-rate units are Table II verbatim.
  */
object Nexmark {

  private def sliding(len: Double, slide: Double) =
    Some(WindowSpec("sliding", "time", len, slide))
  private def tumbling(len: Double) =
    Some(WindowSpec("tumbling", "time", len, len))

  val q1: Workload = Workload(
    "Q1", "Q1",
    Dag(
      "nexmark-q1",
      Vector(
        Operator("srcBids", OpType.Source, tupleWidthIn = 32, tupleWidthOut = 32,
          tupleDataType = "bid"),
        Operator("map", OpType.Map, tupleWidthIn = 32, tupleWidthOut = 32,
          tupleDataType = "bid", selectivity = 1.0),
        Operator("sink", OpType.Sink, tupleWidthIn = 32, tupleWidthOut = 32),
      ),
      Vector("srcBids" -> "map", "map" -> "sink"),
    ),
    unitsFlink = Map("srcBids" -> 700e3),
    unitsTimely = Some(Map("srcBids" -> 9e6)),
  )

  val q2: Workload = Workload(
    "Q2", "Q2",
    Dag(
      "nexmark-q2",
      Vector(
        Operator("srcBids", OpType.Source, tupleWidthIn = 32, tupleWidthOut = 32,
          tupleDataType = "bid"),
        Operator("filter", OpType.Filter, tupleWidthIn = 32, tupleWidthOut = 32,
          tupleDataType = "bid", selectivity = 0.2),
        Operator("sink", OpType.Sink, tupleWidthIn = 32, tupleWidthOut = 32),
      ),
      Vector("srcBids" -> "filter", "filter" -> "sink"),
    ),
    unitsFlink = Map("srcBids" -> 900e3),
    unitsTimely = Some(Map("srcBids" -> 9e6)),
  )

  val q3: Workload = Workload(
    "Q3", "Q3",
    Dag(
      "nexmark-q3",
      Vector(
        Operator("srcAuctions", OpType.Source, tupleWidthIn = 48, tupleWidthOut = 48,
          tupleDataType = "auction"),
        Operator("srcPersons", OpType.Source, tupleWidthIn = 64, tupleWidthOut = 64,
          tupleDataType = "person"),
        Operator("filterA", OpType.Filter, tupleWidthIn = 48, tupleWidthOut = 48,
          tupleDataType = "auction", selectivity = 0.25),
        Operator("filterP", OpType.Filter, tupleWidthIn = 64, tupleWidthOut = 64,
          tupleDataType = "person", selectivity = 0.2),
        Operator("join", OpType.IncJoin, joinKeyClass = "long",
          tupleWidthIn = 56, tupleWidthOut = 80, tupleDataType = "joined",
          selectivity = 0.4),
        Operator("sink", OpType.Sink, tupleWidthIn = 80, tupleWidthOut = 80),
      ),
      Vector(
        "srcAuctions" -> "filterA", "srcPersons" -> "filterP",
        "filterA" -> "join", "filterP" -> "join", "join" -> "sink",
      ),
    ),
    unitsFlink = Map("srcAuctions" -> 200e3, "srcPersons" -> 40e3),
    unitsTimely = Some(Map("srcAuctions" -> 5e6, "srcPersons" -> 5e6)),
  )

  val q5: Workload = Workload(
    "Q5", "Q5",
    Dag(
      "nexmark-q5",
      Vector(
        Operator("srcBids", OpType.Source, tupleWidthIn = 32, tupleWidthOut = 32,
          tupleDataType = "bid"),
        Operator("winCount", OpType.WindowAgg, window = sliding(60, 10),
          aggClass = "long", aggKeyClass = "long", aggFunction = "count",
          tupleWidthIn = 32, tupleWidthOut = 16, tupleDataType = "bid",
          selectivity = 0.1),
        Operator("winMax", OpType.WindowJoin, window = sliding(60, 10),
          joinKeyClass = "long", aggFunction = "max",
          tupleWidthIn = 16, tupleWidthOut = 24, tupleDataType = "hotitem",
          selectivity = 0.5),
        Operator("sink", OpType.Sink, tupleWidthIn = 24, tupleWidthOut = 24),
      ),
      Vector("srcBids" -> "winCount", "winCount" -> "winMax", "winMax" -> "sink"),
    ),
    unitsFlink = Map("srcBids" -> 80e3),
    unitsTimely = Some(Map("srcBids" -> 10e6)),
  )

  val q8: Workload = Workload(
    "Q8", "Q8",
    Dag(
      "nexmark-q8",
      Vector(
        Operator("srcPersons", OpType.Source, tupleWidthIn = 64, tupleWidthOut = 64,
          tupleDataType = "person"),
        Operator("srcAuctions", OpType.Source, tupleWidthIn = 48, tupleWidthOut = 48,
          tupleDataType = "auction"),
        Operator("winPersons", OpType.WindowAgg, window = tumbling(10),
          aggClass = "long", aggKeyClass = "long", aggFunction = "count",
          tupleWidthIn = 64, tupleWidthOut = 32, tupleDataType = "person",
          selectivity = 0.15),
        Operator("winAuctions", OpType.WindowAgg, window = tumbling(10),
          aggClass = "long", aggKeyClass = "long", aggFunction = "count",
          tupleWidthIn = 48, tupleWidthOut = 32, tupleDataType = "auction",
          selectivity = 0.15),
        Operator("join", OpType.WindowJoin, window = tumbling(10),
          joinKeyClass = "long", tupleWidthIn = 32, tupleWidthOut = 48,
          tupleDataType = "joined", selectivity = 0.3),
        Operator("sink", OpType.Sink, tupleWidthIn = 48, tupleWidthOut = 48),
      ),
      Vector(
        "srcPersons" -> "winPersons", "srcAuctions" -> "winAuctions",
        "winPersons" -> "join", "winAuctions" -> "join", "join" -> "sink",
      ),
    ),
    unitsFlink = Map("srcAuctions" -> 100e3, "srcPersons" -> 60e3),
    unitsTimely = Some(Map("srcAuctions" -> 4e6, "srcPersons" -> 4e6)),
  )

  val all: Vector[Workload] = Vector(q1, q2, q3, q5, q8)
}

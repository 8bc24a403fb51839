package repro.dataflow

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.RateEstimator
import repro.core.{Labeler, Pretrain}
import repro.workloads.{Workload, Workloads}

/** The string-keyed bodies of `Dag.topoOrder`, `Simulator.run`,
  * `Labeler.label` and `RateEstimator.requiredRates` from before `Dag`
  * owned operator positions, kept verbatim as a reference. The adjacency
  * maps are built here from `dag.edges`, as `Dag` built them then.
  */
object StringKeyedReference {

  final class Adjacency(dag: Dag) {
    import dag.{edges, name, ops}

    val byId: Map[String, Operator] = ops.map(o => o.id -> o).toMap

    val downstream: Map[String, Vector[String]] =
      edges.groupBy(_._1).view.mapValues(_.map(_._2)).toMap.withDefaultValue(Vector.empty)

    val upstream: Map[String, Vector[String]] =
      edges.groupBy(_._2).view.mapValues(_.map(_._1)).toMap.withDefaultValue(Vector.empty)

    lazy val topoOrder: Vector[String] = {
      val inDeg  = scala.collection.mutable.Map(ops.map(o => o.id -> upstream(o.id).size): _*)
      val queue  = scala.collection.mutable.Queue(ops.map(_.id).filter(inDeg(_) == 0): _*)
      val out    = Vector.newBuilder[String]
      var seen   = 0
      while (queue.nonEmpty) {
        val id = queue.dequeue()
        out += id
        seen += 1
        downstream(id).foreach { d =>
          inDeg(d) -= 1
          if (inDeg(d) == 0) queue.enqueue(d)
        }
      }
      require(seen == ops.size, s"$name: dataflow graph contains a cycle")
      out.result()
    }
  }

  import Simulator.{measurementBias, processingAbility, selectivityBias}
  private val noiseSeed = 7L

  def run(
      dag: Dag,
      sourceRates: Map[String, Double],
      parallelisms: Map[String, Int],
      mode: SimMode,
      noiseEpoch: Long,
  ): RunResult = {
    val adj = new Adjacency(dag)
    require(dag.sources.forall(s => sourceRates.contains(s.id)),
      s"${dag.name}: missing source rate for some source")
    require(dag.ops.forall(o => parallelisms.getOrElse(o.id, 0) >= 1),
      s"${dag.name}: every operator needs parallelism >= 1")

    val offered    = scala.collection.mutable.Map.empty[String, Double]
    val output     = scala.collection.mutable.Map.empty[String, Double]
    val ability    = scala.collection.mutable.Map.empty[String, Double]
    val overloaded = scala.collection.mutable.Map.empty[String, Boolean]

    adj.topoOrder.foreach { id =>
      val op = adj.byId(id)
      val in =
        if (adj.upstream(id).isEmpty) sourceRates(id)
        else adj.upstream(id).map(output).sum
      val pa = processingAbility(op, parallelisms(id), mode)
      offered(id)    = in
      ability(id)    = pa
      overloaded(id) = in > pa * (1.0 + 1e-9)
      output(id)     = math.min(in, pa) * op.selectivity
    }

    val backpressured = scala.collection.mutable.Map.empty[String, Boolean]
    adj.topoOrder.reverseIterator.foreach { id =>
      backpressured(id) = adj.downstream(id).exists(d => overloaded(d) || backpressured(d))
    }

    val jobBp = overloaded.values.exists(identity)
    val metrics = dag.ops.map { op =>
      val id   = op.id
      val p    = parallelisms(id)
      val pa   = ability(id)
      val util = math.min(1.0, offered(id) / pa)
      val truePerInstance = pa / p
      val measured =
        if (overloaded(id)) truePerInstance
        else truePerInstance * measurementBias(dag.name, op, p, mode, noiseSeed, noiseEpoch,
          SimConstants.lowRateFactor(offered(id)))
      OpMetrics(
        id = id,
        parallelism = p,
        offeredRate = offered(id),
        processingAbility = pa,
        utilization = util,
        overloaded = overloaded(id),
        backpressured = backpressured(id),
        outputRate = output(id),
        measuredPerInstanceRate = measured,
        measuredSelectivity =
          op.selectivity * selectivityBias(dag.name, op, noiseSeed, noiseEpoch,
            0.5 * SimConstants.lowRateFactor(offered(id))),
      )
    }.map(m => m.id -> m).toMap

    RunResult(dag, sourceRates, parallelisms, metrics, jobBp)
  }

  def label(run: RunResult, threshold: Double = SimConstants.cpuThreshold): Map[String, Int] = {
    val dag = run.dag
    val adj = new Adjacency(dag)
    val labels = scala.collection.mutable.Map(dag.ops.map(_.id -> -1): _*)

    if (!run.jobBackpressure) {
      dag.ops.foreach(o => labels(o.id) = 0)
      return labels.toMap
    }

    val frontier = dag.ops.filter { o =>
      run.ops(o.id).backpressured &&
      adj.downstream(o.id).forall(d => !run.ops(d).backpressured)
    }

    frontier.foreach { o =>
      adj.downstream(o.id).foreach { d =>
        labels(d) = if (run.ops(d).utilization > threshold) 1 else 0
      }
    }
    labels.toMap
  }

  def requiredRates(dag: Dag, sourceRates: Map[String, Double], obs: RunResult): Map[String, Double] = {
    val adj = new Adjacency(dag)
    val req = scala.collection.mutable.Map.empty[String, Double]
    adj.topoOrder.foreach { id =>
      req(id) =
        if (adj.upstream(id).isEmpty) sourceRates(id)
        else adj.upstream(id).map(u => req(u) * obs.ops(u).measuredSelectivity).sum
    }
    req.toMap
  }
}

/** The position-based core against [[StringKeyedReference]]: same order,
  * same metrics, same labels, same required rates, bit for bit.
  */
class IndexCoreSpec extends AnyFunSuite {
  import StringKeyedReference.Adjacency

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  /** Field-by-field equality, with doubles compared by their bits. */
  private def same(a: OpMetrics, b: OpMetrics): Boolean =
    a.productIterator.zip(b.productIterator).forall {
      case (x: Double, y: Double) => bits(x) == bits(y)
      case (x, y)                 => x == y
    }

  /** Timely rates where the workload has them; otherwise Flink's units at
    * the native speed-up, so every DAG runs in both modes.
    */
  private def rates(w: Workload, m: Double, mode: SimMode): Map[String, Double] =
    if (mode == SimMode.Timely && w.unitsTimely.isEmpty)
      w.rates(m, SimMode.Flink).view.mapValues(_ * SimConstants.timelySpeedup).toMap
    else w.rates(m, mode)

  test("topological order and adjacency match the string-keyed reference") {
    Workloads.all.foreach { w =>
      val dag = w.dag
      val adj = new Adjacency(dag)
      assert(dag.topo.map(dag.ops(_).id).toVector == adj.topoOrder, w.key)
      dag.ops.indices.foreach { i =>
        val id = dag.ops(i).id
        assert(dag.upstream(i).map(dag.ops(_).id).toVector == adj.upstream(id), s"${w.key} $id")
        assert(dag.downstream(i).map(dag.ops(_).id).toVector == adj.downstream(id), s"${w.key} $id")
      }
    }
  }

  Seq(SimMode.Flink, SimMode.Timely).foreach { mode =>
    test(s"run, label and required rates match the reference ($mode)") {
      val pMax = if (mode == SimMode.Flink) 60 else 40
      var backpressured, clean, positives = 0
      Workloads.all.foreach { w =>
        val dag = w.dag
        (0 until 12).foreach { c =>
          val m = 1.0 + 9.0 * DetRandom.unit("oracle-m", w.key, c)
          val rs = rates(w, m, mode)
          val par = dag.ops.map { op =>
            op.id -> (if (op.opType == OpType.Source) 1
                      else 1 + (DetRandom.unit("oracle-p", w.key, c, op.id) * pMax).toInt)
          }.toMap
          val epoch = c.toLong
          val got = Simulator.run(dag, rs, par, mode, noiseEpoch = epoch)
          val ref = StringKeyedReference.run(dag, rs, par, mode, epoch)
          assert(got.jobBackpressure == ref.jobBackpressure, s"${w.key} config $c")
          assert(got.ops == ref.ops, s"${w.key} config $c")
          assert(dag.ops.forall(o => same(got.ops(o.id), ref.ops(o.id))), s"${w.key} config $c")
          assert(got.metricsInTopoOrder == new Adjacency(dag).topoOrder.map(ref.ops))

          val labels = Labeler.label(got)
          assert(labels == StringKeyedReference.label(ref), s"${w.key} config $c")
          positives += labels.values.count(_ == 1)
          if (got.jobBackpressure) backpressured += 1 else clean += 1

          val req = RateEstimator.requiredRates(dag, rs, got)
          val reqRef = StringKeyedReference.requiredRates(dag, rs, ref)
          assert(req.length == dag.size && reqRef.keySet == dag.index.keySet)
          assert(dag.ops.indices.forall(i => bits(req(i)) == bits(reqRef(dag.ops(i).id))), s"${w.key} config $c")
        }
        // GNN samples share the DAG's arrays, which equal the old rebuild.
        val s = Pretrain.agnosticSample(dag, rates(w, 1.0, mode))
        val adj = new Adjacency(dag)
        dag.ops.indices.foreach { i =>
          assert(s.upstream(i).toSeq == adj.upstream(dag.ops(i).id).map(dag.index))
          assert(s.downstream(i).toSeq == adj.downstream(dag.ops(i).id).map(dag.index))
        }
      }
      // Both branches of Algorithm 1 and the labelling of bottlenecks ran.
      assert(backpressured > 100 && clean > 100 && positives > 100,
        s"backpressured $backpressured clean $clean positives $positives")
    }
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{Evaluation, PaperTables, WorkloadStats}

/** Shared bootstrap for the spark-submit entrypoints: a local SparkSession
  * (used to render result tables as DataFrames, and proof the harness runs
  * under spark-submit) plus the common evaluation pipeline.
  */
object PaperJobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def showStats(spark: SparkSession, stats: Seq[WorkloadStats]): Unit = {
    import spark.implicits._
    stats.toDF().createOrReplaceTempView("stats")
    spark.sql(
      """SELECT method, `group`, round(avg(avgReconfigurations), 2) AS avg_reconfigs,
        |       sum(backpressureOccurrences) AS bp,
        |       round(avg(parallelismAt10Wu), 1) AS par_at_10wu
        |FROM stats GROUP BY method, `group` ORDER BY `group`, method""".stripMargin
    ).show(100, truncate = false)
  }

  /** Runs the Flink-mode evaluation and prints one group table of it. */
  def flinkTable(title: String, metric: Evaluation.GroupRow => Double,
      paper: Map[(String, String), Double] = Map.empty): Unit = {
    val spark = session("streamtune-repro")
    val stats = PaperTables.flinkEvaluation(PaperTables.pretrainFlink(), PaperTables.pretrainZeroTune())
    println(PaperTables.formatGroupTable(title, stats, metric, paper))
    showStats(spark, stats)
    spark.stop()
  }
}

/** Table II: source-rate units per streaming job (spec table). */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val code = PaperTables.tableIIFromCode
    require(code == PaperTables.tableII, "Table II drifted from the paper")
    println(PaperTables.formatTableII)
  }
}

/** Table III: backpressure occurrences during tuning (paper vs measured). */
object TableIIIJob {
  def main(args: Array[String]): Unit =
    PaperJobs.flinkTable("Table III: backpressure occurrences",
      _.backpressureOccurrences.toDouble, PaperTables.paperTableIII)
}

/** Fig. 6 numbers: final total parallelism at 10*Wu in Flink mode. */
object ParallelismJob {
  def main(args: Array[String]): Unit =
    PaperJobs.flinkTable("Fig 6: total parallelism @ 10Wu (Flink)", _.parallelismAt10Wu)
}

/** Fig. 7a numbers: average reconfigurations per tuning process. */
object ReconfigJob {
  def main(args: Array[String]): Unit =
    PaperJobs.flinkTable("Fig 7a: avg reconfigurations per process", _.avgReconfigurations)
}

/** Fig. 8 numbers: Timely-mode parallelism + per-epoch latency percentiles. */
object TimelyJob {
  def main(args: Array[String]): Unit = {
    val spark = PaperJobs.session("streamtune-repro-timely")
    val stats = PaperTables.timelyEvaluation()
    println(PaperTables.formatGroupTable("Fig 8a: total parallelism @ 10Wu (Timely)",
      stats, _.parallelismAt10Wu))
    println(PaperTables.formatTimelyLatencies(stats))
    PaperJobs.showStats(spark, stats)
    spark.stop()
  }
}

/** Fig. 11a numbers: fine-tuning model ablation (SVM / XGBoost / NN). */
object AblationJob {
  def main(args: Array[String]): Unit = {
    val spark = PaperJobs.session("streamtune-repro-ablation")
    val pre   = PaperTables.pretrainFlink()
    val stats = PaperTables.ablation(pre)
    println(PaperTables.formatGroupTable("Fig 11a: backpressure by fine-tune model",
      stats, _.backpressureOccurrences.toDouble))
    println(PaperTables.formatGroupTable("Fig 11a: parallelism by fine-tune model",
      stats, _.parallelismAt10Wu))
    PaperJobs.showStats(spark, stats)
    spark.stop()
  }
}

/** Fig. 11b numbers: similarity-center time, direct GED vs AStar+-LSa. */
object GedTimingJob {
  def main(args: Array[String]): Unit = {
    println(PaperTables.formatGedTiming(PaperTables.gedTiming()))
  }
}

package njbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** One timed region of the traced run. `parent` is the enclosing span's id
  * (-1 at the top); spans of one query share `query`.
  */
final case class Span(id: Int, name: String, parent: Int, query: String, startNs: Long, endNs: Long)

/** Spans kept in memory and written out once, at the end of the run. */
final class Tracer {
  private val origin = System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var next = 0

  /** Run `f` inside a span; returns its result and duration in seconds. */
  def span[A](name: String, query: String = "")(f: => A): (A, Double) = {
    val id = next
    next += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try {
      val a = f
      (a, (System.nanoTime() - t0) / 1e9)
    } finally {
      open = open.tail
      spans += Span(id, name, parent, query, t0 - origin, System.nanoTime() - origin)
    }
  }

  /** Write the spans as a JSON array, times in ns since the tracer began. */
  def write(path: Path): Unit = {
    def q(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    val lines = spans.sortBy(_.id).map(s =>
      s"""{"id":${s.id},"name":${q(s.name)},"parent":${s.parent},"query":${q(s.query)},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    Files.createDirectories(path.toAbsolutePath.getParent)
    Files.write(path, lines.mkString("[\n", ",\n", "\n]\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Exact per-query counters from Spark's task and stage events.
  *
  * A query is tagged by setting the local property [[StageCounters.Tag]]
  * before running it; every stage submitted under the tag adds to its
  * counters.
  */
final class StageCounters extends SparkListener {
  final class Acc {
    var stages = 0L
    var runMs = 0L
    var gcMs = 0L
    var shuffleWriteBytes = 0L
    var spillBytes = 0L
  }
  private val stageTag = mutable.Map.empty[Int, String]
  private val accs = mutable.Map.empty[String, Acc]

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(StageCounters.Tag)))
      .foreach(stageTag(e.stageInfo.stageId) = _)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageTag.get(e.stageInfo.stageId).foreach(t => accs.getOrElseUpdate(t, new Acc).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (t <- stageTag.get(e.stageId); m <- Option(e.taskMetrics)) {
      val a = accs.getOrElseUpdate(t, new Acc)
      a.runMs += m.executorRunTime
      a.gcMs += m.jvmGCTime
      a.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      a.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  /** Run `f` under `tag`; return its result and the tag's counters. */
  def tagged[A](spark: SparkSession, tag: String)(f: => A): (A, Acc) = {
    val sc = spark.sparkContext
    sc.setLocalProperty(StageCounters.Tag, tag)
    val a = try f finally sc.setLocalProperty(StageCounters.Tag, null)
    ListenerBusDrain(sc)
    (a, synchronized(accs.getOrElse(tag, new Acc)))
  }
}

object StageCounters {
  val Tag = "njbench.query"
}

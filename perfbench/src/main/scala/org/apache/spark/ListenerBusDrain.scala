package org.apache.spark

/** Waits until every event posted so far reached the listeners, so the
  * benchmark reads complete counters right after a query. The listener bus
  * is package-private to Spark, hence this one-line bridge.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

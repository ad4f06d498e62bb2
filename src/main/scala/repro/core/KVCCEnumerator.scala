package repro.core

import java.util.concurrent.{ConcurrentLinkedQueue, CountedCompleter, ForkJoinPool}
import repro.graph.{AdjGraph, GraphOps}

/** KVCC-ENUM (Algorithm 1): enumerate all k-vertex connected components of a
  * graph by recursive overlapped partitioning.
  *
  * The recursion tree runs as fork/join tasks on a work-stealing pool. A
  * *piece* task shrinks its subgraph to the k-core and forks one *component*
  * task per connected component. A component task runs GLOBAL-CUT*: with no
  * cut of size < k the component is a k-VCC; otherwise it forks one piece
  * task per overlapped part of the partition.
  *
  * The tasks share no state. Each part is a fresh induced subgraph, and by
  * Lemma 3 every k-VCC lies in exactly one part, so sibling subtrees neither
  * depend on each other nor find the same k-VCC. What a task computes is a
  * function of its subgraph alone, so the set of tasks, and what each one
  * counts, is the same under every schedule. Each task owns a `KvccStats`
  * and adds its children's when they complete; sums do not depend on the
  * order of the additions, so the counters equal those of a one-thread run.
  */
object KVCCEnumerator {

  /** All k-VCCs of `g0`, as induced subgraphs carrying original vertex ids,
    * in `canonicalOrder`. `variant` selects the sweeps GLOBAL-CUT* uses
    * (Section 6.2's VCCE, VCCE-N, VCCE-G, VCCE*); the run's counters are
    * added to `stats`. The recursion runs on a pool of `threads` workers
    * that is created for this call and shut down before it returns; the
    * result and the counters do not depend on `threads`.
    */
  def enumerate(
      g0: AdjGraph,
      k: Int,
      variant: Variant = Variant.Star,
      stats: KvccStats = new KvccStats,
      threads: Int = Runtime.getRuntime.availableProcessors): Vector[AdjGraph] = {
    require(k >= 1, s"k must be >= 1, got $k")
    require(threads >= 1, s"threads must be >= 1, got $threads")
    val found = new ConcurrentLinkedQueue[AdjGraph]()
    val root = new Piece(null, g0, k, variant, found)
    val pool = new ForkJoinPool(threads)
    try pool.invoke(root) finally pool.shutdownNow()
    stats += root.stats
    // Lemma 3 says no k-VCC is found twice; drop a repeat if one is.
    val sorted = found.toArray(new Array[AdjGraph](0)).map(c => (key(c.sortedIds), c)).sortBy(_._1)
    val out = Vector.newBuilder[AdjGraph]
    for (i <- sorted.indices if i == 0 || sorted(i)._1 != sorted(i - 1)._1) out += sorted(i)._2
    out.result()
  }

  /** A node of the recursion tree. `compute` does the node's own work, then
    * forks the children it returns; once they have all completed,
    * `onCompletion` adds their counters to this node's.
    */
  private abstract class Task(parent: Task) extends CountedCompleter[Void](parent) {
    val stats = new KvccStats
    private var children: Vector[Task] = Vector.empty

    protected def work(): Vector[Task]

    final def compute(): Unit = {
      children = work()
      setPendingCount(children.length)
      children.foreach(_.fork())
      tryComplete()
    }

    override def onCompletion(caller: CountedCompleter[_]): Unit = {
      children.foreach(c => stats += c.stats)
      children = Vector.empty
    }
  }

  /** k-core, then one component task per connected component. */
  private final class Piece(
      parent: Task, private var g: AdjGraph, k: Int, variant: Variant, found: ConcurrentLinkedQueue[AdjGraph])
      extends Task(parent) {
    protected def work(): Vector[Task] = {
      val h = GraphOps.kCore(g, k)
      g = null // a finished task stays reachable until its subtree completes
      if (h.n == 0) Vector.empty
      else GraphOps.componentSubgraphs(h).map(new Component(this, _, k, variant, found))
    }
  }

  /** GLOBAL-CUT* on one component: emit it, or one piece task per part. */
  private final class Component(
      parent: Task, private var comp: AdjGraph, k: Int, variant: Variant, found: ConcurrentLinkedQueue[AdjGraph])
      extends Task(parent) {
    protected def work(): Vector[Task] = {
      val c = comp
      comp = null
      // k-core ⇒ min degree ≥ k ⇒ |V| ≥ k+1, so Definition 2's size
      // requirement holds for every emitted component.
      stats.globalCutCalls += 1
      GlobalCutStar.find(c, k, variant, stats) match {
        case None =>
          found.add(c)
          Vector.empty
        case Some(s) =>
          stats.partitions += 1
          Overlap.partition(c, s).map(new Piece(this, _, k, variant, found))
      }
    }
  }

  /** Sort key of the canonical order: size, then the comma-joined sorted ids. */
  private def key(sortedIds: collection.Seq[Long]): (Int, String) = (sortedIds.length, sortedIds.mkString(","))

  /** The canonical order of k-VCCs given as sorted id lists: by size, then
    * lexicographically by their comma-joined ids.
    */
  val canonicalOrder: Ordering[collection.Seq[Long]] = Ordering.by(key)
}

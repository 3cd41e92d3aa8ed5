package repro.core.opt

import org.scalacheck.{Gen, Test}
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestData}
import repro.core.ce.Estimator
import repro.core.stats.{Catalog, TableStats}
import repro.workload.JobLite

/** Planner tests: optimality against brute-force enumeration under a mock
  * estimator, structural invariants, and estimate accounting (Table I).
  */
class DPPlannerToySpec extends AnyFunSuite {

  /** Mock estimator with fixed per-subset cardinalities. */
  private final class FixedEst(cards: Map[Long, Double], default: Double = 1000.0)
      extends Estimator {
    override def cardinality(g: JoinGraph, mask: Long): Double = cards.getOrElse(mask, default)
  }

  private def rel(a: String, i: Int) = GraphRel(a, a, Vector.empty, 1L << i)

  // star: f joins d1, d2, d3 on separate classes
  private val star = JoinGraph(
    "star",
    Vector(rel("f", 0), rel("d1", 1), rel("d2", 2), rel("d3", 3)),
    Vector(
      GraphClass(0, Vector((0, "a"), (1, "id"))),
      GraphClass(1, Vector((0, "b"), (2, "id"))),
      GraphClass(2, Vector((0, "c"), (3, "id"))),
    ),
  )

  private val catalog = Catalog(
    Vector("f", "d1", "d2", "d3", "a", "b", "c", "d", "e").map(t => t -> TableStats(1000, Map.empty)).toMap)
  private val cost    = CostModel()
  private val planner = new DPPlanner(cost, catalog)

  /** All plans by brute-force recursive enumeration; returns min cost. */
  private def bruteBest(g: JoinGraph, est: Estimator): Double = {
    val memo = collection.mutable.HashMap.empty[Long, Double]
    def plans(mask: Long): Double = memo.getOrElseUpdate(mask, {
      if (java.lang.Long.bitCount(mask) == 1)
        cost.scanCost(catalog(g.rels(java.lang.Long.numberOfTrailingZeros(mask)).table).rowCount)
      else {
        var best = Double.MaxValue
        val low  = java.lang.Long.lowestOneBit(mask)
        val rest = mask & ~low
        var sub  = rest
        while (sub != 0) {
          val l = mask & ~sub; val r = sub
          if (g.connected(l) && g.connected(r) && g.crossClasses(l, r).nonEmpty) {
            val lr = est.cardinality(g, l); val rr = est.cardinality(g, r)
            val (phys, bl) = cost.choosePhysical(lr, rr)
            val c = plans(l) + plans(r) +
              cost.joinCost(phys, if (bl) lr else rr, if (bl) rr else lr, est.cardinality(g, mask))
            if (c < best) best = c
          }
          sub = (sub - 1) & rest
        }
        best
      }
    })
    plans(g.fullMask)
  }

  test("star: planner cost equals brute-force optimum") {
    val est = new FixedEst(Map(1L -> 1000.0, 2L -> 10.0, 4L -> 500.0, 8L -> 2.0,
      3L -> 400.0, 5L -> 800.0, 9L -> 100.0), default = 600.0)
    val res = planner.plan(star, est)
    assert(math.abs(res.plan.cost - bruteBest(star, est)) < 1e-6)
  }

  test("star: plan covers all relations exactly once") {
    val est = new FixedEst(Map.empty)
    val res = planner.plan(star, est)
    def leaves(p: Plan): Vector[Int] = p match {
      case l: LeafPlan => Vector(l.relIdx)
      case j: JoinPlan => leaves(j.left) ++ leaves(j.right)
    }
    assert(leaves(res.plan).sorted == Vector(0, 1, 2, 3))
    assert(res.plan.mask == star.fullMask)
  }

  test("no cartesian products: every join node has cross classes") {
    val est = new FixedEst(Map.empty)
    val res = planner.plan(star, est)
    for (j <- res.plan.joinsBottomUp)
      assert(star.crossClasses(j.left.mask, j.right.mask).nonEmpty)
  }

  test("estimatesBySize counts connected subsets per size (star)") {
    val res = planner.plan(star, new FixedEst(Map.empty))
    // star: 4 singles, 3 pairs (f-dX), 3 triples, 1 quad
    assert(res.estimatesBySize == Map(1 -> 4, 2 -> 3, 3 -> 3, 4 -> 1))
  }

  test("single-relation graph plans a leaf") {
    val g = JoinGraph("one", Vector(rel("f", 0)), Vector.empty)
    val res = planner.plan(g, new FixedEst(Map.empty))
    assert(res.plan.isInstanceOf[LeafPlan])
  }

  test("disconnected graph rejected") {
    val g = JoinGraph("dis", Vector(rel("a", 0), rel("b", 1)), Vector.empty)
    intercept[IllegalStateException](planner.plan(g, new FixedEst(Map.empty)))
  }

  test("cheap build side goes broadcast; big one shuffles") {
    val (p1, _) = cost.choosePhysical(10.0, 1e6)
    assert(p1 == Physical.BroadcastHash)
    val (p2, _) = cost.choosePhysical(1e6, 2e6)
    assert(p2 == Physical.ShuffleHash)
  }

  test("plan render shows join order") {
    val est = new FixedEst(Map(2L -> 1.0), default = 1e6)
    val res = planner.plan(star, est)
    val s = res.plan.render(star)
    assert(s.contains("d1") && s.contains("f") && s.contains("⋈"))
  }

  private def chain(n: Int) = JoinGraph(
    s"chain$n",
    (0 until n).toVector.map(i => GraphRel(s"r$i", ('a' + i % 5).toChar.toString, Vector.empty, 1L << i)),
    (0 until n - 1).map(i => GraphClass(i, Vector((i, "x"), (i + 1, "y")))).toVector,
  )

  test("chain of 5: estimate count equals number of connected intervals") {
    val res = planner.plan(chain(5), new FixedEst(Map.empty))
    // connected subsets of a path = intervals: 5+4+3+2+1 = 15
    assert(res.estimatesBySize.values.sum == 15)
  }

  test("at most 20 relations: a 21-relation graph is rejected with its name and size") {
    val res = planner.plan(chain(20), new FixedEst(Map.empty))
    assert(res.plan.mask == (1L << 20) - 1 && res.estimatesBySize.values.sum == 20 * 21 / 2)
    val e = intercept[IllegalArgumentException](planner.plan(chain(21), new FixedEst(Map.empty)))
    assert(e.getMessage.contains("chain21") && e.getMessage.contains("21 relations"), e.getMessage)
  }

  test("joinsBottomUp is ordered by subtree size") {
    val res = planner.plan(star, new FixedEst(Map.empty))
    val sizes = res.plan.joinsBottomUp.map(j => java.lang.Long.bitCount(j.mask))
    assert(sizes == sizes.sorted)
  }

  /** A random connected graph of `n` relations, numbered in random order: a
    * random spanning tree whose edges join an existing class of the parent
    * or open a new one, plus up to two extra classes that close cycles.
    */
  private def randomGraph(n: Int, rnd: scala.util.Random): JoinGraph = {
    val perm    = rnd.shuffle((0 until n).toVector)
    val classes = collection.mutable.ArrayBuffer.empty[Vector[Int]]
    for (i <- 1 until n) {
      val p   = rnd.nextInt(i)
      val own = classes.indices.filter(classes(_).contains(p))
      if (own.nonEmpty && rnd.nextBoolean()) {
        val k = own(rnd.nextInt(own.size))
        classes(k) = classes(k) :+ i
      } else classes += Vector(p, i)
    }
    for (_ <- 0 until rnd.nextInt(3))
      classes += rnd.shuffle((0 until n).toVector).take(2 + rnd.nextInt(math.min(n, 4) - 1))
    JoinGraph(
      s"random$n",
      (0 until n).toVector.map(i => GraphRel(s"r$i", ('a' + i % 6).toChar.toString, Vector.empty, 1L << i)),
      classes.toVector.zipWithIndex.map { case (ms, k) =>
        GraphClass(k, ms.map(m => (perm(m), s"c$k")))
      },
    )
  }

  test("random connected graphs: optimal cost, one estimate per connected subset (scalacheck)") {
    val prop = forAll(Gen.choose(2, 8), Gen.long) { (n, seed) =>
      val rnd   = new scala.util.Random(seed)
      val g     = randomGraph(n, rnd)
      val cards = (1L to g.fullMask).map(m => m -> math.exp(rnd.nextDouble() * 14)).toMap
      val calls = collection.mutable.HashMap.empty[Long, Int]
      val counting = new Estimator {
        override def cardinality(g: JoinGraph, mask: Long): Double = {
          calls(mask) = calls.getOrElse(mask, 0) + 1
          cards(mask)
        }
      }
      val res = planner.plan(g, counting)
      val connected = (1L to g.fullMask).filter(g.connected)
      (res.plan.cost == bruteBest(g, new FixedEst(cards))) :| s"cost on $g" &&
      (calls.toMap == connected.map(_ -> 1).toMap) :| s"estimator calls on $g" &&
      (res.estimates.keySet == connected.toSet) :| s"estimated subsets on $g"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }
}

/** Planner over the full workload: structural invariants on all 113 graphs
  * with the real stats estimator (no execution).
  */
class DPPlannerWorkloadSpec extends SparkSpec {
  private lazy val wb = TestData.wb(spark)

  for (q <- JobLite.all) {
    test(s"${q.name}: DP plan is complete, connected, cartesian-free") {
      val g   = JoinGraph.fromSpec(q)
      val res = new DPPlanner(wb.cost, wb.catalog)
        .plan(g, new repro.core.ce.StatsEstimator(wb.catalog))
      assert(res.plan.mask == g.fullMask)
      for (j <- res.plan.joinsBottomUp)
        assert(g.crossClasses(j.left.mask, j.right.mask).nonEmpty)
      // Table I: one estimate per connected subset, counted per size
      val connected = (1L to g.fullMask).filter(g.connected)
      assert(res.estimatesBySize == connected.groupBy(java.lang.Long.bitCount).view.mapValues(_.size).toMap)
    }
  }
}

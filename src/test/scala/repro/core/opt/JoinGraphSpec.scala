package repro.core.opt

import org.scalatest.funsuite.AnyFunSuite

import repro.workload.{EqPred, JobLite, JoinClass, QuerySpec, Relation}

/** Bitmask join-graph mechanics: connectivity, neighbors, contraction. */
class JoinGraphSpec extends AnyFunSuite {

  // chain a -k- b -k2- c
  private val chain = JoinGraph(
    "chain",
    Vector(
      GraphRel("a", "ta", Vector.empty, 1L),
      GraphRel("b", "tb", Vector.empty, 2L),
      GraphRel("c", "tc", Vector(EqPred("v", 1)), 4L),
    ),
    Vector(
      GraphClass(0, Vector((0, "k"), (1, "k"))),
      GraphClass(1, Vector((1, "k2"), (2, "k2"))),
    ),
  )

  test("fullMask and nRels") {
    assert(chain.nRels == 3 && chain.fullMask == 7L)
  }

  test("adjacency") {
    assert(chain.adjacency(0) == 2L)
    assert(chain.adjacency(1) == 5L)
    assert(chain.adjacency(2) == 2L)
  }

  test("connected subsets of a chain") {
    assert(chain.connected(1L) && chain.connected(2L) && chain.connected(4L))
    assert(chain.connected(3L) && chain.connected(6L) && chain.connected(7L))
    assert(!chain.connected(5L)) // {a, c} not connected
    assert(!chain.connected(0L))
  }

  test("neighbors") {
    assert(chain.neighbors(1L) == 2L)
    assert(chain.neighbors(2L) == 5L)
    assert(chain.neighbors(3L) == 4L)
    assert(chain.neighbors(7L) == 0L)
  }

  test("origUnion composes masks") {
    assert(chain.origUnion(3L) == 3L)
    assert(chain.origUnion(5L) == 5L)
  }

  test("crossClasses between parts") {
    assert(chain.crossClasses(1L, 2L).map(_.origId) == Vector(0))
    assert(chain.crossClasses(1L, 4L).isEmpty)
    assert(chain.crossClasses(3L, 4L).map(_.origId) == Vector(1))
  }

  test("interfaceClasses of a prefix") {
    val iface = chain.interfaceClasses(3L)
    assert(iface.map(_._1.origId) == Vector(1))
    assert(iface.head._2 == ((1, "k2")))
  }

  test("contract a prefix into a temp relation") {
    val g2 = chain.contract(3L, "tmp0")
    assert(g2.nRels == 2)
    assert(g2.rels(0).alias == "c")
    assert(g2.rels(1).table == "tmp0")
    assert(g2.rels(1).origMask == 3L)
    assert(g2.classes.size == 1)
    assert(g2.classes(0).origId == 1)
    assert(g2.classes(0).members.toSet == Set((0, "k2"), (1, "c1")))
    assert(g2.connected(g2.fullMask))
  }

  test("contract keeps filters of surviving relations") {
    val g2 = chain.contract(3L, "tmp0")
    assert(g2.rels(0).preds == Vector(EqPred("v", 1)))
    assert(g2.rels(1).preds.isEmpty)
  }

  test("contract shifts members above the contraction and reuses those below it") {
    // a - b - c - d, with x joining a and b, y joining b and d, z joining c and d
    val g = JoinGraph(
      "path",
      Vector("a", "b", "c", "d").zipWithIndex.map { case (t, i) => GraphRel(t, t, Vector.empty, 1L << i) },
      Vector(
        GraphClass(0, Vector((0, "x"), (1, "x"))),
        GraphClass(1, Vector((1, "y"), (3, "y"))),
        GraphClass(2, Vector((2, "z"), (3, "z"))),
      ),
    )
    val g2 = g.contract(4L, "tmp0") // c: d moves from 3 to 2, the temp is 3
    assert(g2.classes(0) eq g.classes(0))
    assert(g2.classes(1).members == Vector((1, "y"), (2, "y")))
    assert(g2.classes(1).members(0) eq g.classes(1).members(0))
    assert(g2.classes(2).members == Vector((2, "z"), (3, "c2")))
    assert(g2 == JoinGraph("path", Vector(g.rels(0), g.rels(1), g.rels(3), GraphRel("tmp0", "tmp0", Vector.empty, 4L)),
      Vector(g.classes(0), GraphClass(1, Vector((1, "y"), (2, "y"))), GraphClass(2, Vector((2, "z"), (3, "c2"))))))
    assert(g.contract(12L, "tmp1").classes(1).members(1)._2 eq JoinGraph.tempColumn(1))
  }

  test("contract rejects disconnected masks") {
    intercept[IllegalArgumentException](chain.contract(5L, "bad"))
  }

  test("fromSpec assigns origMask bits and class origIds") {
    val q = QuerySpec(
      "t",
      Vector(Relation("a", "ta"), Relation("b", "tb")),
      Vector(JoinClass(Vector((0, "k"), (1, "k")))),
      Map(1 -> Vector(EqPred("x", 2))),
    )
    val g = JoinGraph.fromSpec(q)
    assert(g.rels(0).origMask == 1L && g.rels(1).origMask == 2L)
    assert(g.classes(0).origId == 0)
    assert(g.rels(1).preds == Vector(EqPred("x", 2)))
  }

  for (q <- JobLite.all.take(20)) {
    test(s"${q.name}: every single relation and the full mask are connected") {
      val g = JoinGraph.fromSpec(q)
      for (i <- 0 until g.nRels) assert(g.connected(1L << i))
      assert(g.connected(g.fullMask))
    }
  }

  test("clique subgraphs: all subsets of the movie clique are connected (q33a)") {
    val g = JoinGraph.fromSpec(JobLite.byName("q33a"))
    val movieClass = g.classes.find(_.members.size >= 5).get
    val members = movieClass.members.map(_._1)
    // every pair of movie-class members is connected on its own
    for (a <- members; b <- members if a != b)
      assert(g.connected((1L << a) | (1L << b)))
  }
}

package repro.core

import repro.TestGraphs.GraphViews
import repro.{SparkSpec, TestGraphs}
import repro.gen.Datasets
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable

class SparseCertificateSpec extends SparkSpec {

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph =
    AdjGraph.fromEdges(
      TestGraphs.erdosRenyi(n, p, seed) ++ (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))

  /** The edges of `g` whose forest label satisfies `keep`, on all n vertices. */
  private def labelled(g: AdjGraph, label: Array[Int])(keep: Int => Boolean): AdjGraph =
    TestGraphs.fromLocalEdges(g.n,
      for (x <- 0 until g.n; s <- g.offsets(x) until g.offsets(x + 1)
           if g.adj(s) > x && keep(label(s))) yield (x, g.adj(s)))

  private def componentSets(g: AdjGraph): Set[Set[Int]] =
    GraphOps.connectedComponents(g).map(_.toSet).toSet

  /** For every S with |S| < k: G − S and cert − S have the same components. */
  private def assertStrong(g: AdjGraph, cert: AdjGraph, k: Int): Unit =
    for (size <- 0 until k; s <- (0 until g.n).combinations(size)) {
      val keep = (0 until g.n).filter(v => !s.contains(v)).toArray
      val gComps = GraphOps.connectedComponents(g.induced(keep))
        .map(_.map(keep(_)).toSet).toSet
      val cComps = GraphOps.connectedComponents(cert.induced(keep))
        .map(_.map(keep(_)).toSet).toSet
      assert(gComps == cComps, s"S=${s.toList}")
    }

  test("certificate is a subgraph with at most k(n-1) edges") {
    for (seed <- 1 to 10; k <- Seq(1, 2, 3, 5)) {
      val g = randomConnected(15, 0.4, seed)
      val cert = SparseCertificate.compute(g, k).graph
      assert(cert.n == g.n)
      assert(cert.m <= k * (g.n - 1), s"seed=$seed k=$k m=${cert.m}")
      assert(cert.m <= g.m)
      val edges = g.edgeList.toSet
      cert.edgeList.foreach(e => assert(edges.contains(e)))
    }
  }

  test("certificate of a sparse graph is the graph itself") {
    val tree = AdjGraph.fromEdges((0 until 9).map(i => (i.toLong, (i + 1).toLong)))
    val cert = SparseCertificate.compute(tree, 3).graph
    assert(cert.m == tree.m)
  }

  test("certificate min degree is min(k, original degree)") {
    for (seed <- 1 to 5; k <- Seq(2, 3, 4)) {
      val g = randomConnected(14, 0.6, seed)
      val cert = SparseCertificate.compute(g, k).graph
      (0 until g.n).foreach { v =>
        assert(cert.degree(v) >= math.min(k, g.degree(v)), s"v=$v seed=$seed k=$k")
      }
    }
  }

  for (seed <- 1 to 15; k <- Seq(2, 3)) {
    test(s"certificate preserves k-vertex connectivity (seed=$seed, k=$k)") {
      val g = randomConnected(9, 0.45, seed * 13)
      val cert = SparseCertificate.compute(g, k).graph
      val kg = BruteForce.kappaNaive(g)
      val kc = BruteForce.kappaNaive(cert)
      assert(math.min(kg, k) == math.min(kc, k), s"κ(G)=$kg κ(cert)=$kc")
    }
  }

  for (seed <- 1 to 12) {
    test(s"STRONG certificate: G-S and SC-S have identical components for |S|<k (seed=$seed)") {
      val k = 3
      val g = randomConnected(10, 0.4, seed * 17)
      assertStrong(g, SparseCertificate.compute(g, k).graph, k)
    }
  }

  for (seed <- 1 to 12) {
    test(s"STRONG certificate at k=4: G-S and SC-S have identical components for |S|<4 (seed=$seed)") {
      val k = 4
      val g = randomConnected(11, 0.7, seed * 19)
      val cert = SparseCertificate.compute(g, k).graph
      assert(cert.m < g.m, s"certificate kept all ${g.m} edges")
      assertStrong(g, cert, k)
    }
  }

  for (seed <- 1 to 10) {
    test(s"label class F_i is a maximal forest of G - F_1 - ... - F_(i-1), k up to 6 (seed=$seed)") {
      val g = randomConnected(16 + seed, 0.2 + 0.04 * seed, seed * 31)
      for (k <- 1 to 6) {
        val label = SparseCertificate.forestLabels(g, k)
        for (x <- 0 until g.n; s <- g.offsets(x) until g.offsets(x + 1)) {
          val y = g.adj(s)
          val twin = g.offsets(y) + g.adj.slice(g.offsets(y), g.offsets(y + 1)).indexOf(x)
          assert(label(s) >= 0 && label(s) <= k, s"k=$k slot ($x,$y) label ${label(s)}")
          assert(label(s) == label(twin), s"k=$k ($x,$y) labelled ${label(s)} but ($y,$x) ${label(twin)}")
        }
        for (i <- 1 to k) {
          val forest = labelled(g, label)(_ == i)
          val rest = labelled(g, label)(l => l >= i || l == 0)
          val comps = componentSets(forest)
          assert(forest.m == g.n - comps.size, s"k=$k: F_$i has a cycle")
          assert(comps == componentSets(rest), s"k=$k: F_$i does not span G - F_<$i")
        }
      }
    }
  }

  test("certificate is the labelled edges, side-groups the components of F_k larger than k") {
    for (seed <- 1 to 10; k <- 1 to 5) {
      val g = randomConnected(20, 0.35, seed * 7)
      val label = SparseCertificate.forestLabels(g, k)
      val SparseCertificate.Cert(cert, groups) = SparseCertificate.compute(g, k)
      assert(cert.edgeList == labelled(g, label)(_ > 0).edgeList, s"seed=$seed k=$k")
      val expected = componentSets(labelled(g, label)(_ == k)).filter(_.size > k)
      assert(groups.map(_.toSet).toSet == expected, s"seed=$seed k=$k")
    }
  }

  for (seed <- 1 to 10) {
    test(s"side-groups: all members pairwise k-local-connected in the certificate (seed=$seed)") {
      val k = 3
      val g = randomConnected(12, 0.5, seed * 29)
      val SparseCertificate.Cert(cert, groups) = SparseCertificate.compute(g, k)
      groups.foreach { grp =>
        assert(grp.length > k)
        val fn = new FlowNetwork(cert)
        for (i <- grp.indices; j <- i + 1 until grp.length) {
          val c = fn.locCut(grp(i), grp(j), k).fold(k)(_.length)
          assert(c >= k, s"pair (${grp(i)},${grp(j)}) has κ=$c < $k in certificate")
        }
      }
    }
  }

  test("side-groups at k = 2, 3, 4 occur and are pairwise local-k-connected in G") {
    for (k <- Seq(2, 3, 4)) {
      var pairs = 0
      for (seed <- 1 to 20) {
        val g = randomConnected(14, 0.25 + 0.01 * seed, seed * 37)
        val fn = new FlowNetwork(g)
        SparseCertificate.compute(g, k).sideGroups.foreach { grp =>
          for (i <- grp.indices; j <- i + 1 until grp.length) {
            val c = fn.locCut(grp(i), grp(j), k).fold(k)(_.length)
            assert(c >= k, s"seed=$seed k=$k: (${grp(i)},${grp(j)}) has κ=$c")
            pairs += 1
          }
        }
      }
      assert(pairs > 0, s"no side-group at k=$k")
    }
  }

  test("side-groups only contain groups larger than k") {
    for (k <- Seq(2, 3, 4)) {
      var found = 0
      for (seed <- 1 to 5) {
        val g = randomConnected(14, 0.5, seed)
        val groups = SparseCertificate.compute(g, k).sideGroups
        groups.foreach(grp => assert(grp.length > k))
        // Groups are disjoint.
        val all = groups.flatten
        assert(all.distinct.length == all.length)
        found += groups.length
      }
      assert(found > 0, s"no side-group at k=$k")
    }
  }

  /** `compute` and `forestLabels` equal `CertificateOracle` array for array:
    * labels, certificate offsets and adjacency, and every side-group in order.
    */
  private def assertMatchesOracle(g: AdjGraph, k: Int, what: String): Unit = {
    val got = SparseCertificate.compute(g, k)
    val want = CertificateOracle.compute(g, k)
    assert(SparseCertificate.forestLabels(g, k).sameElements(CertificateOracle.forestLabels(g, k)), s"$what labels")
    assert(got.graph.ids.sameElements(want.graph.ids), s"$what ids")
    assert(got.graph.offsets.sameElements(want.graph.offsets), s"$what offsets")
    assert(got.graph.adj.sameElements(want.graph.adj), s"$what adj")
    assert(got.sideGroups.length == want.sideGroups.length, s"$what side-group count")
    got.sideGroups.lazyZip(want.sideGroups).foreach((a, b) => assert(a.sameElements(b), s"$what side-group"))
  }

  test("one-scan certificate equals the oracle on random graphs, k = 1..8") {
    for (n <- 10 to 60 by 5; p <- Seq(0.05, 0.15, 0.4, 0.8); seed <- 1 to 3) {
      val g = AdjGraph.fromEdges(TestGraphs.erdosRenyi(n, p, n * 1000L + (p * 100).toLong * 10 + seed))
      for (k <- 1 to 8) assertMatchesOracle(g, k, s"n=$n p=$p seed=$seed k=$k")
    }
    // A circulant graph (i joined to i ± 1, 2, 3): F_1 and F_2 each span
    // almost all of it, and a side-group of more than 2^16 + 1 vertices comes
    // from at least 2^16 label-k edges, which the side-group build cuts into
    // more than one chunk.
    val n = 70000
    val g = AdjGraph.fromEdges(for (i <- 0 until n; d <- 1 to 3) yield (i.toLong, ((i + d) % n).toLong))
    for (k <- 1 to 2) {
      assertMatchesOracle(g, k, s"circulant n=$n k=$k")
      assert(SparseCertificate.compute(g, k).sideGroups.map(_.length).max > (1 << 16) + 1, s"circulant k=$k side-groups")
    }
  }

  test("one-scan certificate equals the oracle on every GLOBAL-CUT input of VCCE* on two substitutes") {
    for (name <- Seq("Cit", "Cnr")) {
      val g0 = AdjGraph.fromEdges(Datasets.generate(Datasets.byName(name), 1.0 / 1024))
      for (k <- Seq(10, 15, 20, 30)) {
        val work = mutable.Stack(g0)
        var inputs = 0
        while (work.nonEmpty) {
          val h = GraphOps.kCore(work.pop(), k)
          if (h.n > 0) for (comp <- GraphOps.componentSubgraphs(h)) {
            for (kk <- Seq(1, k / 2, k, k + 5)) assertMatchesOracle(comp, kk, s"$name k=$k input $inputs at k=$kk")
            inputs += 1
            GlobalCutStar.find(comp, k, Variant.Star, new KvccStats)
              .foreach(cut => Overlap.partition(comp, cut).foreach(work.push))
          }
        }
        assert(inputs > 1, s"$name k=$k: $inputs GLOBAL-CUT inputs")
      }
    }
  }
}

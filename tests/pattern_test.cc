#include "pattern/pattern.h"

#include <gtest/gtest.h>

#include "common/interner.h"
#include "pattern/automorphism.h"
#include "pattern/bisimulation.h"
#include "pattern/codec.h"
#include "pattern/pattern_ops.h"

namespace gpar {
namespace {

class PatternTest : public ::testing::Test {
 protected:
  Interner labels_;
  LabelId cust_ = labels_.Intern("cust");
  LabelId city_ = labels_.Intern("city");
  LabelId fr_ = labels_.Intern("fr");
  LabelId friend_ = labels_.Intern("friend");
  LabelId live_in_ = labels_.Intern("live_in");
  LabelId like_ = labels_.Intern("like");
};

TEST_F(PatternTest, BuildAndAdjacency) {
  Pattern p;
  PNodeId x = p.AddNode(cust_);
  PNodeId y = p.AddNode(cust_);
  PNodeId c = p.AddNode(city_);
  p.AddEdge(x, friend_, y);
  p.AddEdge(x, live_in_, c);
  p.set_x(x);

  EXPECT_EQ(p.num_nodes(), 3u);
  EXPECT_EQ(p.num_edges(), 2u);
  EXPECT_EQ(p.adj(x).size(), 2u);
  EXPECT_EQ(p.adj(y).size(), 1u);
  EXPECT_FALSE(p.adj(y)[0].out);
  EXPECT_EQ(p.adj(y)[0].other, x);
}

TEST_F(PatternTest, ExpandMultiplicities) {
  Pattern p;
  PNodeId x = p.AddNode(cust_);
  PNodeId f = p.AddNode(fr_, 3);
  p.AddEdge(x, like_, f);
  p.set_x(x);

  EXPECT_TRUE(p.has_multiplicities());
  std::vector<PNodeId> first_copy;
  Pattern e = p.ExpandMultiplicities(&first_copy);
  EXPECT_EQ(e.num_nodes(), 4u);   // x + 3 copies
  EXPECT_EQ(e.num_edges(), 3u);   // one like per copy
  EXPECT_FALSE(e.has_multiplicities());
  EXPECT_EQ(e.x(), first_copy[x]);
  // Identity mapping when nothing to expand.
  Pattern none;
  none.AddNode(cust_);
  std::vector<PNodeId> id_map;
  none.ExpandMultiplicities(&id_map);
  EXPECT_EQ(id_map, std::vector<PNodeId>{0});
}

TEST_F(PatternTest, RadiusAndConnectivity) {
  Pattern p;
  PNodeId x = p.AddNode(cust_);
  PNodeId a = p.AddNode(cust_);
  PNodeId b = p.AddNode(city_);
  p.AddEdge(x, friend_, a);
  p.AddEdge(a, live_in_, b);
  p.set_x(x);
  EXPECT_EQ(Radius(p, x), 2u);
  EXPECT_EQ(Radius(p, a), 1u);
  EXPECT_TRUE(IsConnected(p));

  PNodeId isolated = p.AddNode(fr_);
  (void)isolated;
  EXPECT_FALSE(IsConnected(p));
  EXPECT_EQ(Radius(p, x), kUnreachable);
}

TEST_F(PatternTest, SubsumptionAnchored) {
  // sub: x --friend--> z ; super: x --friend--> z, x --live_in--> c.
  Pattern sub;
  PNodeId sx = sub.AddNode(cust_);
  PNodeId sz = sub.AddNode(cust_);
  sub.AddEdge(sx, friend_, sz);
  sub.set_x(sx);

  Pattern super;
  PNodeId px = super.AddNode(cust_);
  PNodeId pz = super.AddNode(cust_);
  PNodeId pc = super.AddNode(city_);
  super.AddEdge(px, friend_, pz);
  super.AddEdge(px, live_in_, pc);
  super.set_x(px);

  EXPECT_TRUE(IsSubsumedBy(sub, super, /*anchor_designated=*/true));
  EXPECT_FALSE(IsSubsumedBy(super, sub, true));

  // Anchoring matters: reversed friend edge is not subsumed at x.
  Pattern rev;
  PNodeId rx = rev.AddNode(cust_);
  PNodeId rz = rev.AddNode(cust_);
  rev.AddEdge(rz, friend_, rx);
  rev.set_x(rx);
  EXPECT_FALSE(IsSubsumedBy(rev, super, true));
  EXPECT_TRUE(IsSubsumedBy(rev, super, /*anchor_designated=*/false));
}

TEST_F(PatternTest, SubsumptionRespectsMultiplicity) {
  Pattern one;
  PNodeId ox = one.AddNode(cust_);
  PNodeId of = one.AddNode(fr_, 2);
  one.AddEdge(ox, like_, of);
  one.set_x(ox);

  Pattern three;
  PNodeId tx = three.AddNode(cust_);
  PNodeId tf = three.AddNode(fr_, 3);
  three.AddEdge(tx, like_, tf);
  three.set_x(tx);

  EXPECT_TRUE(IsSubsumedBy(one, three, true));   // 2 <= 3 copies
  EXPECT_FALSE(IsSubsumedBy(three, one, true));  // 3 > 2
}

TEST_F(PatternTest, ApplyExtensionForwardAndBackward) {
  Pattern p;
  PNodeId x = p.AddNode(cust_);
  PNodeId a = p.AddNode(cust_);
  p.AddEdge(x, friend_, a);
  p.set_x(x);

  Pattern fwd = ApplyExtension(p, {a, true, live_in_, city_, kNoPatternNode});
  EXPECT_EQ(fwd.num_nodes(), 3u);
  EXPECT_EQ(fwd.num_edges(), 2u);

  Pattern back = ApplyExtension(p, {a, true, friend_, kNoLabel, x});
  EXPECT_EQ(back.num_nodes(), 2u);
  EXPECT_EQ(back.num_edges(), 2u);
}

TEST_F(PatternTest, IsomorphismDetectsRenamings) {
  Pattern p1;
  {
    PNodeId x = p1.AddNode(cust_);
    PNodeId a = p1.AddNode(cust_);
    PNodeId c = p1.AddNode(city_);
    p1.AddEdge(x, friend_, a);
    p1.AddEdge(a, live_in_, c);
    p1.set_x(x);
  }
  Pattern p2;  // same shape, nodes declared in another order
  {
    PNodeId c = p2.AddNode(city_);
    PNodeId x = p2.AddNode(cust_);
    PNodeId a = p2.AddNode(cust_);
    p2.AddEdge(x, friend_, a);
    p2.AddEdge(a, live_in_, c);
    p2.set_x(x);
  }
  EXPECT_TRUE(AreIsomorphic(p1, p2, /*preserve_designated=*/true));

  // Designation breaks it: x on the other endpoint.
  Pattern p3 = p2;
  p3.set_x(2);  // the friend target
  EXPECT_FALSE(AreIsomorphic(p1, p3, true));
  EXPECT_TRUE(AreIsomorphic(p1, p3, /*preserve_designated=*/false));
}

TEST_F(PatternTest, IsomorphismBucketKeyIsInvariant) {
  Pattern p1;
  {
    PNodeId x = p1.AddNode(cust_);
    PNodeId a = p1.AddNode(cust_);
    p1.AddEdge(x, friend_, a);
    p1.set_x(x);
  }
  Pattern p2;
  {
    PNodeId a = p2.AddNode(cust_);
    PNodeId x = p2.AddNode(cust_);
    p2.AddEdge(x, friend_, a);
    p2.set_x(x);
  }
  EXPECT_EQ(IsomorphismBucketKey(p1), IsomorphismBucketKey(p2));
}

TEST_F(PatternTest, BisimulationNecessaryForIsomorphism) {
  // Lemma 4 direction: isomorphic => bisimilar.
  Pattern p1;
  {
    PNodeId x = p1.AddNode(cust_);
    PNodeId a = p1.AddNode(cust_);
    PNodeId c = p1.AddNode(city_);
    p1.AddEdge(x, friend_, a);
    p1.AddEdge(x, live_in_, c);
    p1.AddEdge(a, live_in_, c);
    p1.set_x(x);
  }
  Pattern p2 = p1;
  EXPECT_TRUE(AreBisimilarDesignated(p1, p2));

  // Same pattern, but x moved to `a`, whose out-behaviour differs from the
  // original x: the patterns are bisimilar, yet their x's are not related.
  Pattern p1_at_a = p1;
  p1_at_a.set_x(1);
  EXPECT_FALSE(AreBisimilarDesignated(p1, p1_at_a));

  // Different out-behaviour: drop one live_in.
  Pattern p3;
  {
    PNodeId x = p3.AddNode(cust_);
    PNodeId a = p3.AddNode(cust_);
    PNodeId c = p3.AddNode(city_);
    p3.AddEdge(x, friend_, a);
    p3.AddEdge(x, live_in_, c);
    p3.set_x(x);
  }
  EXPECT_FALSE(AreBisimilarDesignated(p1, p3));
  EXPECT_FALSE(AreIsomorphic(p1, p3, false));  // consistent with Lemma 4
}

TEST_F(PatternTest, BisimilarButNotIsomorphic) {
  // A 2-cycle and a 3-cycle of the same label/edge are bisimilar yet not
  // isomorphic — exactly why bisimulation is only a prefilter. x defaults to
  // node 0 in both, and every node falls in one class.
  Pattern two;
  {
    PNodeId a = two.AddNode(cust_);
    PNodeId b = two.AddNode(cust_);
    two.AddEdge(a, friend_, b);
    two.AddEdge(b, friend_, a);
  }
  Pattern three;
  {
    PNodeId a = three.AddNode(cust_);
    PNodeId b = three.AddNode(cust_);
    PNodeId c = three.AddNode(cust_);
    three.AddEdge(a, friend_, b);
    three.AddEdge(b, friend_, c);
    three.AddEdge(c, friend_, a);
  }
  EXPECT_TRUE(AreBisimilarDesignated(two, three));
  EXPECT_FALSE(AreIsomorphic(two, three, false));
}

TEST_F(PatternTest, BisimulationColors) {
  Pattern p;
  PNodeId x = p.AddNode(cust_);
  PNodeId a = p.AddNode(cust_);
  PNodeId b = p.AddNode(cust_);
  PNodeId c = p.AddNode(city_);
  p.AddEdge(a, live_in_, c);
  p.AddEdge(b, live_in_, c);
  p.set_x(x);
  auto colors = BisimulationColors(p);
  EXPECT_EQ(colors[a], colors[b]);  // same behaviour
  EXPECT_NE(colors[x], colors[a]);  // x has no out-edges
  EXPECT_NE(colors[c], colors[a]);  // different label
}

TEST_F(PatternTest, CodecRoundTrip) {
  Pattern p;
  PNodeId x = p.AddNode(cust_);
  PNodeId f = p.AddNode(fr_, 3);
  PNodeId y = p.AddNode(fr_);
  p.AddEdge(x, like_, f);
  p.AddEdge(x, like_, y);
  p.set_x(x);
  p.set_y(y);

  std::string text = SerializePattern(p, labels_);
  auto r = ParsePattern(text, &labels_);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(p == r.value());
}

TEST_F(PatternTest, CodecRejectsBadInput) {
  Interner in;
  EXPECT_FALSE(ParsePattern("", &in).ok());
  EXPECT_FALSE(ParsePattern("n 5 label\n", &in).ok());
  EXPECT_FALSE(ParsePattern("n 0 a\ne 0 9 l\n", &in).ok());
  EXPECT_FALSE(ParsePattern("q nonsense\n", &in).ok());
  EXPECT_FALSE(ParsePattern("n 0 a badattr\n", &in).ok());
}

TEST_F(PatternTest, EqualityOperator) {
  Pattern a;
  PNodeId x = a.AddNode(cust_);
  PNodeId y = a.AddNode(fr_);
  a.AddEdge(x, like_, y);
  a.set_x(x);
  Pattern b = a;
  EXPECT_TRUE(a == b);
  b.set_y(y);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace gpar

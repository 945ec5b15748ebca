#include "rule/gpar.h"

#include <gtest/gtest.h>

#include "graph/paper_graphs.h"
#include "pattern/pattern_ops.h"

namespace gpar {
namespace {

class GparTest : public ::testing::Test {
 protected:
  Interner labels_;
  LabelId cust_ = labels_.Intern("cust");
  LabelId fr_ = labels_.Intern("fr");
  LabelId friend_ = labels_.Intern("friend");
  LabelId visit_ = labels_.Intern("visit");
  LabelId like_ = labels_.Intern("like");

  Pattern SimpleAntecedent() {
    Pattern p;
    PNodeId x = p.AddNode(cust_);
    PNodeId xp = p.AddNode(cust_);
    PNodeId y = p.AddNode(fr_);
    p.set_x(x);
    p.set_y(y);
    p.AddEdge(x, friend_, xp);
    p.AddEdge(xp, visit_, y);
    return p;
  }
};

TEST_F(GparTest, CreateValidations) {
  // Missing y.
  {
    Pattern p;
    PNodeId x = p.AddNode(cust_);
    PNodeId xp = p.AddNode(cust_);
    p.AddEdge(x, friend_, xp);
    p.set_x(x);
    EXPECT_FALSE(Gpar::Create(std::move(p), visit_).ok());
  }
  // Empty antecedent.
  {
    Pattern p;
    PNodeId x = p.AddNode(cust_);
    PNodeId y = p.AddNode(fr_);
    p.set_x(x);
    p.set_y(y);
    EXPECT_FALSE(Gpar::Create(std::move(p), visit_).ok());
  }
  // q(x, y) already in Q.
  {
    Pattern p = SimpleAntecedent();
    p.AddEdge(p.x(), visit_, p.y());
    EXPECT_FALSE(Gpar::Create(std::move(p), visit_).ok());
  }
  // x == y.
  {
    Pattern p;
    PNodeId x = p.AddNode(cust_);
    PNodeId z = p.AddNode(cust_);
    p.AddEdge(x, friend_, z);
    p.set_x(x);
    p.set_y(x);
    EXPECT_FALSE(Gpar::Create(std::move(p), visit_).ok());
  }
  // Valid.
  EXPECT_TRUE(Gpar::Create(SimpleAntecedent(), visit_).ok());
}

TEST_F(GparTest, PrAddsExactlyTheConsequent) {
  Gpar r = Gpar::Create(SimpleAntecedent(), visit_).value();
  EXPECT_EQ(r.pr().num_edges(), r.antecedent().num_edges() + 1);
  const PatternEdge& last = r.pr().edge(r.pr().num_edges() - 1);
  EXPECT_EQ(last.src, r.pr().x());
  EXPECT_EQ(last.dst, r.pr().y());
  EXPECT_EQ(last.label, visit_);
  Predicate q = r.predicate();
  EXPECT_EQ(q.x_label, cust_);
  EXPECT_EQ(q.edge_label, visit_);
  EXPECT_EQ(q.y_label, fr_);
}

TEST_F(GparTest, ComponentDecompositionConnected) {
  Gpar r = Gpar::Create(SimpleAntecedent(), visit_).value();
  // Q is connected: x-component is the whole antecedent, no others.
  EXPECT_EQ(r.x_component().num_nodes(), 3u);
  EXPECT_TRUE(r.other_components().empty());
  // eval radius: in Q, y sits two hops from x (via x'); P_R has it at 1.
  EXPECT_EQ(r.radius_at_x(), 1u);
  EXPECT_EQ(r.eval_radius(), 2u);
}

TEST_F(GparTest, ComponentDecompositionIsolatedY) {
  // Q = like(x, f) with isolated y: the x-component is {x, f}; {y} is a
  // residual component checked globally.
  Pattern p;
  PNodeId x = p.AddNode(cust_);
  PNodeId f = p.AddNode(fr_);
  PNodeId y = p.AddNode(fr_);
  p.set_x(x);
  p.set_y(y);
  p.AddEdge(x, like_, f);
  Gpar r = Gpar::Create(std::move(p), visit_).value();
  EXPECT_EQ(r.x_component().num_nodes(), 2u);
  ASSERT_EQ(r.other_components().size(), 1u);
  EXPECT_EQ(r.other_components()[0].num_nodes(), 1u);
  EXPECT_EQ(r.other_components()[0].node(0).label, fr_);
}

TEST_F(GparTest, SerializeParseRoundTrip) {
  PaperG1 g1 = MakePaperG1();
  Interner* labels = g1.graph.mutable_labels();
  for (const Gpar* r : {&g1.r1, &g1.r5, &g1.r6, &g1.r7, &g1.r8}) {
    std::string text = r->Serialize(*labels);
    auto parsed = Gpar::Parse(text, labels);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    EXPECT_TRUE(*parsed == *r);
  }
}

TEST_F(GparTest, SerializeSetRoundTrip) {
  PaperG1 g1 = MakePaperG1();
  Interner* labels = g1.graph.mutable_labels();
  std::vector<Gpar> rules{g1.r1, g1.r5, g1.r8};
  std::string text = Gpar::SerializeSet(rules, *labels);
  auto parsed = Gpar::ParseSet(text, labels);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 3u);
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_TRUE((*parsed)[i] == rules[i]);
  }
}

TEST_F(GparTest, ParseRejectsGarbage) {
  Interner in;
  EXPECT_FALSE(Gpar::Parse("", &in).ok());
  EXPECT_FALSE(Gpar::Parse("n 0 cust x\n", &in).ok());       // no q line
  EXPECT_FALSE(Gpar::Parse("q visit\n", &in).ok());          // no pattern
  EXPECT_FALSE(Gpar::ParseSet("nonsense\n---\n", &in).ok());
}

}  // namespace
}  // namespace gpar

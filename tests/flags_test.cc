#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gpar {
namespace {

Result<FlagMap> Parse(std::vector<const char*> argv, int first = 0) {
  return ParseFlagArgs(static_cast<int>(argv.size()), argv.data(), first);
}

TEST(FlagsTest, ParsesPairs) {
  auto r = Parse({"--graph", "g.txt", "--workers", "4"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(r->at("graph"), "g.txt");
  EXPECT_EQ(r->at("workers"), "4");
}

TEST(FlagsTest, EmptyIsOk) {
  auto r = Parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(FlagsTest, SkipsLeadingPositionals) {
  auto r = Parse({"gpar_tool", "mine", "--k", "10"}, /*first=*/2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->at("k"), "10");
}

TEST(FlagsTest, TrailingFlagWithoutValueIsAnError) {
  // Previously dropped silently by the `i + 1 < argc` loop bound.
  auto r = Parse({"--graph", "g.txt", "--rules-out"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("rules-out"), std::string::npos);
}

TEST(FlagsTest, SoleTrailingFlagIsAnError) {
  auto r = Parse({"--out"});
  EXPECT_FALSE(r.ok());
}

TEST(FlagsTest, NonFlagTokenIsAnError) {
  EXPECT_FALSE(Parse({"graph", "g.txt"}).ok());
  EXPECT_FALSE(Parse({"-graph", "g.txt"}).ok());
  EXPECT_FALSE(Parse({"--", "g.txt"}).ok());
}

TEST(FlagsTest, ValuesMayLookLikeFlags) {
  // The value slot is taken verbatim (e.g. negative numbers).
  auto r = Parse({"--offset", "--3"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at("offset"), "--3");
}

TEST(FlagsTest, RepeatedFlagIsAnError) {
  auto r = Parse({"--k", "1", "--k", "2"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("twice"), std::string::npos);
}

TEST(FlagsTest, UnknownFlagIsRefusedByName) {
  auto r = Parse({"--graph", "g.txt", "--sigam", "3"});
  ASSERT_TRUE(r.ok()) << r.status();
  Status s = CheckKnownFlags(*r, {"graph", "sigma"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "unknown flag '--sigam'");
  // Known flags pass, whether given or not.
  EXPECT_TRUE(CheckKnownFlags(*r, {"graph", "sigam", "out"}).ok());
  EXPECT_TRUE(CheckKnownFlags(FlagMap{}, {}).ok());
}

}  // namespace
}  // namespace gpar

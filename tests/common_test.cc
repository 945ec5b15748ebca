#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>

#include "common/interner.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace gpar {
namespace {

TEST(StatusTest, OkAndErrors) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::InvalidArgument("bad k");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad k");

  std::ostringstream os;
  os << err;
  EXPECT_EQ(os.str(), "InvalidArgument: bad k");
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    GPAR_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

// GCC 12 under -O2 reports a -Wmaybe-uninitialized false positive inside
// std::variant's destructor when a Result<int> holding a Status dies here
// (the string member's inlined dtor; GCC PR 105142 family). Scoped pragma so
// the rest of the TU keeps the warning.
#pragma GCC diagnostic push
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
TEST(ResultTest, ValueAndError) {
  Result<int> v(42);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);

  Result<int> e(Status::OutOfRange("n"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kOutOfRange);
}
#pragma GCC diagnostic pop

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool good) -> Result<int> {
    if (good) return 7;
    return Status::Internal("boom");
  };
  auto consume = [&](bool good) -> Result<int> {
    GPAR_ASSIGN_OR_RETURN(int x, produce(good));
    return x * 2;
  };
  EXPECT_EQ(*consume(true), 14);
  EXPECT_FALSE(consume(false).ok());
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool identical = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    identical = identical && (va == b.Next());
    differs = differs || (va != c.Next());
  }
  EXPECT_TRUE(identical);
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t r = rng.UniformRange(3, 9);
    EXPECT_GE(r, 3u);
    EXPECT_LE(r, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(7);
  size_t low = 0, high = 0;
  for (int i = 0; i < 4000; ++i) {
    uint64_t z = rng.Zipf(100, 1.0);
    EXPECT_LT(z, 100u);
    if (z < 10) ++low;
    if (z >= 90) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(InternerTest, RoundTripAndStability) {
  Interner in;
  LabelId a = in.Intern("cust");
  LabelId b = in.Intern("city");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("cust"), a);  // stable
  EXPECT_EQ(in.Lookup("cust"), a);
  EXPECT_EQ(in.Lookup("nope"), kNoLabel);
  EXPECT_EQ(in.Name(a), "cust");
  EXPECT_EQ(in.Name(kNoLabel), "<none>");
  EXPECT_EQ(in.Name(kWildcardLabel), "*");
  EXPECT_EQ(in.size(), 2u);
}

}  // namespace
}  // namespace gpar

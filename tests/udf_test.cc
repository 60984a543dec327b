#include <gtest/gtest.h>

#include <limits>

#include "catalog/database.h"
#include "exec/expression.h"
#include "udf/registry.h"

namespace htg::udf {
namespace {

class BuiltinsTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(RegisterBuiltins(&registry_).ok()); }

  Value Eval(const std::string& name, std::vector<Value> args) {
    const ScalarFunction* fn = registry_.FindScalar(name);
    EXPECT_NE(fn, nullptr) << name;
    Result<Value> result = fn->eval(nullptr, args);
    EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    return result.ok() ? std::move(*result) : Value::Null();
  }

  FunctionRegistry registry_;
};

TEST_F(BuiltinsTest, LookupIsCaseInsensitive) {
  EXPECT_NE(registry_.FindScalar("charindex"), nullptr);
  EXPECT_NE(registry_.FindScalar("CharIndex"), nullptr);
  EXPECT_EQ(registry_.FindScalar("nope"), nullptr);
}

TEST_F(BuiltinsTest, DuplicateRegistrationRejected) {
  ScalarFunction dup;
  dup.name = "LEN";
  dup.min_args = 1;
  dup.max_args = 1;
  dup.result_type = [](const std::vector<DataType>&) {
    return DataType::kInt64;
  };
  dup.eval = [](EvalContext*, const std::vector<Value>&) -> Result<Value> {
    return Value::Int64(0);
  };
  EXPECT_FALSE(registry_.RegisterScalar(std::move(dup)).ok());
}

TEST_F(BuiltinsTest, LenIgnoresTrailingBlanks) {
  EXPECT_EQ(Eval("LEN", {Value::String("ACGT   ")}).AsInt64(), 4);
  EXPECT_EQ(Eval("LEN", {Value::String("")}).AsInt64(), 0);
}

TEST_F(BuiltinsTest, CharIndexOneBased) {
  EXPECT_EQ(Eval("CHARINDEX", {Value::String("N"), Value::String("ACGN")})
                .AsInt64(),
            4);
  EXPECT_EQ(Eval("CHARINDEX", {Value::String("X"), Value::String("ACGN")})
                .AsInt64(),
            0);
  // Start position argument.
  EXPECT_EQ(Eval("CHARINDEX", {Value::String("A"), Value::String("ABAB"),
                               Value::Int32(2)})
                .AsInt64(),
            3);
}

TEST_F(BuiltinsTest, SubstringTsqlSemantics) {
  EXPECT_EQ(
      Eval("SUBSTRING",
           {Value::String("GATTACA"), Value::Int32(2), Value::Int32(3)})
          .AsString(),
      "ATT");
  // A start before 1 consumes length (T-SQL behaviour).
  EXPECT_EQ(
      Eval("SUBSTRING",
           {Value::String("GATTACA"), Value::Int32(0), Value::Int32(3)})
          .AsString(),
      "GA");
  EXPECT_EQ(
      Eval("SUBSTRING",
           {Value::String("GATTACA"), Value::Int32(100), Value::Int32(3)})
          .AsString(),
      "");
}

TEST_F(BuiltinsTest, StringSuite) {
  EXPECT_EQ(Eval("LEFT", {Value::String("ACGT"), Value::Int32(2)}).AsString(),
            "AC");
  EXPECT_EQ(Eval("RIGHT", {Value::String("ACGT"), Value::Int32(2)}).AsString(),
            "GT");
  EXPECT_EQ(Eval("REVERSE", {Value::String("ACGT")}).AsString(), "TGCA");
  EXPECT_EQ(Eval("REPLACE", {Value::String("AANAA"), Value::String("N"),
                             Value::String("-")})
                .AsString(),
            "AA-AA");
  EXPECT_EQ(Eval("REPLICATE", {Value::String("AC"), Value::Int32(3)})
                .AsString(),
            "ACACAC");
  EXPECT_EQ(Eval("LTRIM", {Value::String("  x ")}).AsString(), "x ");
  EXPECT_EQ(Eval("RTRIM", {Value::String("  x ")}).AsString(), "  x");
}

TEST_F(BuiltinsTest, MathSuite) {
  EXPECT_EQ(Eval("ABS", {Value::Int64(-5)}).AsInt64(), 5);
  EXPECT_EQ(Eval("FLOOR", {Value::Double(2.7)}).AsDouble(), 2.0);
  EXPECT_EQ(Eval("CEILING", {Value::Double(2.1)}).AsDouble(), 3.0);
  EXPECT_EQ(Eval("POWER", {Value::Double(2), Value::Double(10)}).AsDouble(),
            1024.0);
  EXPECT_EQ(Eval("ROUND", {Value::Double(2.345), Value::Int32(2)}).AsDouble(),
            2.35);
}

TEST_F(BuiltinsTest, NullHandlingFunctions) {
  EXPECT_EQ(Eval("ISNULL", {Value::Null(), Value::Int64(7)}).AsInt64(), 7);
  EXPECT_EQ(Eval("ISNULL", {Value::Int64(1), Value::Int64(7)}).AsInt64(), 1);
  EXPECT_EQ(Eval("COALESCE", {Value::Null(), Value::Null(), Value::String("x")})
                .AsString(),
            "x");
  EXPECT_TRUE(Eval("COALESCE", {Value::Null()}).is_null());
  EXPECT_EQ(Eval("CONCAT", {Value::String("a"), Value::Null(),
                            Value::Int64(3)})
                .AsString(),
            "a3");
}

TEST_F(BuiltinsTest, NewIdIsValidAndNondeterministic) {
  const ScalarFunction* fn = registry_.FindScalar("NEWID");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->deterministic);
  const Value a = Eval("NEWID", {});
  const Value b = Eval("NEWID", {});
  EXPECT_NE(a.AsString(), b.AsString());
}

TEST_F(BuiltinsTest, AggregatesRegistered) {
  for (const char* name : {"COUNT", "SUM", "MIN", "MAX", "AVG"}) {
    EXPECT_NE(registry_.FindAggregate(name), nullptr) << name;
  }
}

TEST_F(BuiltinsTest, SumIntAndDouble) {
  const AggregateFunction* sum = registry_.FindAggregate("SUM");
  AggregateState state(sum);
  ASSERT_TRUE(state.Accumulate({Value::Int64(3)}).ok());
  ASSERT_TRUE(state.Accumulate({Value::Null()}).ok());
  ASSERT_TRUE(state.Accumulate({Value::Int64(4)}).ok());
  EXPECT_EQ(state.Terminate()->AsInt64(), 7);

  AggregateState dbl(sum);
  ASSERT_TRUE(dbl.Accumulate({Value::Double(1.5)}).ok());
  ASSERT_TRUE(dbl.Accumulate({Value::Int64(1)}).ok());
  EXPECT_EQ(dbl.Terminate()->AsDouble(), 2.5);
}

// Integer SUM that leaves int64 is a typed kOutOfRange, in Accumulate
// and in the Merge of two parallel partials, instead of wrapping.
TEST_F(BuiltinsTest, SumOverflowIsOutOfRange) {
  const AggregateFunction* sum = registry_.FindAggregate("SUM");
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  AggregateState up(sum);
  ASSERT_TRUE(up.Accumulate({Value::Int64(kMax)}).ok());
  const Status over = up.Accumulate({Value::Int64(1)});
  EXPECT_EQ(over.code(), StatusCode::kOutOfRange) << over.ToString();
  EXPECT_NE(over.message().find("arithmetic overflow"), std::string::npos);

  AggregateState down(sum);
  ASSERT_TRUE(down.Accumulate({Value::Int64(-kMax)}).ok());
  EXPECT_EQ(down.Accumulate({Value::Int64(-2)}).code(),
            StatusCode::kOutOfRange);

  AggregateState a(sum);
  AggregateState b(sum);
  ASSERT_TRUE(a.Accumulate({Value::Int64(kMax / 2 + 1)}).ok());
  ASSERT_TRUE(b.Accumulate({Value::Int64(kMax / 2 + 1)}).ok());
  EXPECT_EQ(a.Merge(b).code(), StatusCode::kOutOfRange);

  // The largest representable total still sums.
  AggregateState edge(sum);
  ASSERT_TRUE(edge.Accumulate({Value::Int64(kMax - 1)}).ok());
  ASSERT_TRUE(edge.Accumulate({Value::Int64(1)}).ok());
  EXPECT_EQ(edge.Terminate()->AsInt64(), kMax);
}

TEST_F(BuiltinsTest, SumOfAllNullsIsNull) {
  AggregateState state(registry_.FindAggregate("SUM"));
  ASSERT_TRUE(state.Accumulate({Value::Null()}).ok());
  EXPECT_TRUE(state.Terminate()->is_null());
}

TEST_F(BuiltinsTest, MinMaxMergeAcrossPartials) {
  const AggregateFunction* mx = registry_.FindAggregate("MAX");
  AggregateState a(mx);
  AggregateState b(mx);
  ASSERT_TRUE(a.Accumulate({Value::Int64(3)}).ok());
  ASSERT_TRUE(b.Accumulate({Value::Int64(9)}).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Terminate()->AsInt64(), 9);
}

TEST_F(BuiltinsTest, AvgIgnoresNulls) {
  AggregateState state(registry_.FindAggregate("AVG"));
  ASSERT_TRUE(state.Accumulate({Value::Int64(2)}).ok());
  ASSERT_TRUE(state.Accumulate({Value::Null()}).ok());
  ASSERT_TRUE(state.Accumulate({Value::Int64(4)}).ok());
  EXPECT_EQ(state.Terminate()->AsDouble(), 3.0);
}

TEST_F(BuiltinsTest, CountStarVersusCountColumn) {
  const AggregateFunction* count = registry_.FindAggregate("COUNT");
  AggregateState star(count);
  AggregateState col(count);
  ASSERT_TRUE(star.Accumulate({}).ok());
  ASSERT_TRUE(star.Accumulate({}).ok());
  ASSERT_TRUE(col.Accumulate({Value::Int64(1)}).ok());
  ASSERT_TRUE(col.Accumulate({Value::Null()}).ok());
  EXPECT_EQ(star.Terminate()->AsInt64(), 2);
  EXPECT_EQ(col.Terminate()->AsInt64(), 1);
}

TEST(LikeMatcherTest, Wildcards) {
  using exec::LikeExpr;
  EXPECT_TRUE(LikeExpr::Match("ACGT", "ACGT"));
  EXPECT_TRUE(LikeExpr::Match("ACGT", "AC%"));
  EXPECT_TRUE(LikeExpr::Match("ACGT", "%GT"));
  EXPECT_TRUE(LikeExpr::Match("ACGT", "%CG%"));
  EXPECT_TRUE(LikeExpr::Match("ACGT", "A_G_"));
  EXPECT_TRUE(LikeExpr::Match("", "%"));
  EXPECT_TRUE(LikeExpr::Match("AAGT", "%A%G%"));
  EXPECT_FALSE(LikeExpr::Match("ACGT", "ACG"));
  EXPECT_FALSE(LikeExpr::Match("ACGT", "_GT"));
  EXPECT_FALSE(LikeExpr::Match("", "_"));
  EXPECT_FALSE(LikeExpr::Match("ACGT", "%X%"));
}

}  // namespace
}  // namespace htg::udf

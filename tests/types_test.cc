#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "types/data_type.h"
#include "types/schema.h"
#include "types/value.h"

namespace htg {
namespace {

TEST(DataTypeTest, NamesRoundTrip) {
  EXPECT_EQ(*DataTypeFromName("int"), DataType::kInt32);
  EXPECT_EQ(*DataTypeFromName("BIGINT"), DataType::kInt64);
  EXPECT_EQ(*DataTypeFromName("VarChar"), DataType::kString);
  EXPECT_EQ(*DataTypeFromName("varbinary"), DataType::kBlob);
  EXPECT_EQ(*DataTypeFromName("uniqueidentifier"), DataType::kGuid);
  EXPECT_EQ(*DataTypeFromName("FLOAT"), DataType::kDouble);
  EXPECT_FALSE(DataTypeFromName("FROBNICATE").ok());
}

TEST(DataTypeTest, NumericClassification) {
  EXPECT_TRUE(IsNumeric(DataType::kInt32));
  EXPECT_TRUE(IsNumeric(DataType::kDouble));
  EXPECT_FALSE(IsNumeric(DataType::kString));
  EXPECT_FALSE(IsNumeric(DataType::kBlob));
}

TEST(ValueTest, NullBehaviour) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(v.Compare(Value::Null()), 0);
  EXPECT_LT(v.Compare(Value::Int32(0)), 0);  // NULL sorts first
}

TEST(ValueTest, NumericComparisonAcrossWidths) {
  EXPECT_EQ(Value::Int32(5).Compare(Value::Int64(5)), 0);
  EXPECT_LT(Value::Int32(5).Compare(Value::Double(5.5)), 0);
  EXPECT_GT(Value::Double(10.0).Compare(Value::Int32(9)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, HashEqualValuesAgree) {
  EXPECT_EQ(Value::Int32(7).Hash(), Value::Int32(7).Hash());
  EXPECT_EQ(Value::String("ACGT").Hash(), Value::String("ACGT").Hash());
  EXPECT_NE(Value::String("ACGT").Hash(), Value::String("ACGA").Hash());
}

TEST(ValueTest, HashAgreesWithCompareAcrossNumericKinds) {
  const std::vector<std::pair<Value, Value>> equal = {
      {Value::Int64(1), Value::Double(1.0)},
      {Value::Int32(-7), Value::Double(-7.0)},
      {Value::Int64(0), Value::Double(-0.0)},
      {Value::Double(0.0), Value::Double(-0.0)},
      {Value::Bool(true), Value::Int64(1)},
      {Value::Int32(5), Value::Int64(5)},
      {Value::Null(), Value::Null()}};
  for (const auto& [a, b] : equal) {
    ASSERT_EQ(a.Compare(b), 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
  }
  // Non-integral doubles still hash apart from their truncation.
  EXPECT_NE(Value::Double(1.5).Hash(), Value::Int64(1).Hash());
}

TEST(ValueTest, CastIntToString) {
  Result<Value> v = Value::Int64(42).CastTo(DataType::kString);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "42");
}

TEST(ValueTest, CastStringToInt) {
  Result<Value> v = Value::String("17").CastTo(DataType::kInt64);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt64(), 17);
  EXPECT_FALSE(Value::String("x").CastTo(DataType::kInt64).ok());
}

TEST(ValueTest, CastNullStaysNull) {
  Result<Value> v = Value::Null().CastTo(DataType::kInt32);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(ValueTest, CastOutOfRangeIntegerIsTypedError) {
  // INT holds [-2^31, 2^31); no silent wrap past either end.
  EXPECT_EQ(Value::Int64(2147483647).CastTo(DataType::kInt32)->AsInt64(),
            2147483647);
  EXPECT_EQ(Value::Int64(-2147483648LL).CastTo(DataType::kInt32)->AsInt64(),
            -2147483648LL);
  for (int64_t v : {int64_t{5000000000}, int64_t{2147483648},
                    int64_t{-2147483649}}) {
    Result<Value> cast = Value::Int64(v).CastTo(DataType::kInt32);
    ASSERT_FALSE(cast.ok()) << v;
    EXPECT_TRUE(cast.status().IsInvalidArgument()) << cast.status().ToString();
  }
  EXPECT_TRUE(Value::String("5000000000")
                  .CastTo(DataType::kInt32)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(Value::String("5000000000").CastTo(DataType::kInt64)->AsInt64(),
            5000000000LL);
}

TEST(ValueTest, CastDoubleOutsideIntegerRangeIsTypedError) {
  // In range: truncates toward zero.
  EXPECT_EQ(Value::Double(-2.9).CastTo(DataType::kInt32)->AsInt64(), -2);
  EXPECT_EQ(Value::Double(2147483647.9).CastTo(DataType::kInt32)->AsInt64(),
            2147483647);
  EXPECT_EQ(Value::Double(-9223372036854775808.0)
                .CastTo(DataType::kInt64)
                ->AsInt64(),
            std::numeric_limits<int64_t>::min());
  const double bad[] = {2147483648.0, -2147483649.0, 1e300,
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (double d : bad) {
    Result<Value> cast = Value::Double(d).CastTo(DataType::kInt32);
    ASSERT_FALSE(cast.ok()) << d;
    EXPECT_TRUE(cast.status().IsInvalidArgument()) << cast.status().ToString();
  }
  for (double d : {9223372036854775808.0, -9223372036854777856.0, 1e300,
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    Result<Value> cast = Value::Double(d).CastTo(DataType::kInt64);
    ASSERT_FALSE(cast.ok()) << d;
    EXPECT_TRUE(cast.status().IsInvalidArgument()) << cast.status().ToString();
  }
}

TEST(ValueTest, DoubleToStringReadable) {
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema schema;
  schema.AddColumn({.name = "Short_Read_Seq", .type = DataType::kString});
  schema.AddColumn({.name = "r_id", .type = DataType::kInt64});
  EXPECT_EQ(schema.FindColumn("short_read_seq"), 0);
  EXPECT_EQ(schema.FindColumn("R_ID"), 1);
  EXPECT_EQ(schema.FindColumn("nope"), -1);
  EXPECT_FALSE(schema.ResolveColumn("nope").ok());
}

TEST(SchemaTest, ToStringListsColumns) {
  Schema schema;
  schema.AddColumn({.name = "a", .type = DataType::kInt32});
  Column fs;
  fs.name = "reads";
  fs.type = DataType::kBlob;
  fs.filestream = true;
  schema.AddColumn(fs);
  const std::string text = schema.ToString();
  EXPECT_NE(text.find("a INT"), std::string::npos);
  EXPECT_NE(text.find("FILESTREAM"), std::string::npos);
}

TEST(RowTest, CompareRowsOnSubset) {
  Row a{Value::Int32(1), Value::String("x")};
  Row b{Value::Int32(1), Value::String("y")};
  EXPECT_EQ(CompareRowsOn(a, b, {0}), 0);
  EXPECT_LT(CompareRowsOn(a, b, {0, 1}), 0);
  EXPECT_LT(CompareRowsOn(a, b, {1}), 0);
}

}  // namespace
}  // namespace htg

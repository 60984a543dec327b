#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "catalog/database.h"
#include "exec/aggregate_ops.h"
#include "exec/basic_ops.h"
#include "exec/expression.h"
#include "exec/join_ops.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "exec/sort_ops.h"
#include "storage/heap_table.h"
#include "pooled_storage.h"

namespace htg::exec {
namespace {

std::unique_ptr<Database> OpenTestDb(const std::string& name) {
  DatabaseOptions options;
  options.filestream_root = "/tmp/htg_exec_test_" + name;
  auto db = Database::Open(name, options);
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

// Creates a heap table of (k INT, v BIGINT, s VARCHAR) with n rows:
// (i % groups, i, "s<i % groups>").
catalog::TableDef* MakeNumbersTable(Database* db, const std::string& name,
                                    int n, int groups) {
  catalog::TableDef def;
  def.name = name;
  def.schema.AddColumn({.name = "k", .type = DataType::kInt32});
  def.schema.AddColumn({.name = "v", .type = DataType::kInt64});
  def.schema.AddColumn({.name = "s", .type = DataType::kString});
  EXPECT_TRUE(db->CreateTable(std::move(def)).ok());
  catalog::TableDef* table = *db->GetTable(name);
  for (int i = 0; i < n; ++i) {
    Row row{Value::Int32(i % groups), Value::Int64(i),
            Value::String("s" + std::to_string(i % groups))};
    EXPECT_TRUE(storage::AppendRow(table->table.get(), row).ok());
  }
  return table;
}

ExprPtr Col(int i, DataType t = DataType::kInt64) {
  return std::make_unique<ColumnRefExpr>(i, "c" + std::to_string(i), t);
}

ExprPtr Lit(int64_t v) { return std::make_unique<LiteralExpr>(Value::Int64(v)); }

TEST(ExpressionTest, ArithmeticAndPromotion) {
  udf::EvalContext eval;
  BinaryExpr add(BinaryOp::kAdd, Lit(2), Lit(3));
  EXPECT_EQ(add.Eval(&eval, {})->AsInt64(), 5);
  BinaryExpr mixed(BinaryOp::kMul, Lit(2),
                   std::make_unique<LiteralExpr>(Value::Double(1.5)));
  EXPECT_EQ(mixed.Eval(&eval, {})->AsDouble(), 3.0);
  BinaryExpr intdiv(BinaryOp::kDiv, Lit(7), Lit(2));
  EXPECT_EQ(intdiv.Eval(&eval, {})->AsInt64(), 3);  // T-SQL integer division
}

TEST(ExpressionTest, DivisionByZeroFails) {
  udf::EvalContext eval;
  BinaryExpr div(BinaryOp::kDiv, Lit(1), Lit(0));
  EXPECT_FALSE(div.Eval(&eval, {}).ok());
}

TEST(ExpressionTest, StringConcatWithPlus) {
  udf::EvalContext eval;
  BinaryExpr cat(BinaryOp::kAdd,
                 std::make_unique<LiteralExpr>(Value::String("AC")),
                 std::make_unique<LiteralExpr>(Value::String("GT")));
  EXPECT_EQ(cat.Eval(&eval, {})->AsString(), "ACGT");
}

TEST(ExpressionTest, ThreeValuedLogic) {
  udf::EvalContext eval;
  auto null_expr = [] { return std::make_unique<LiteralExpr>(Value::Null()); };
  auto true_expr = [] {
    return std::make_unique<LiteralExpr>(Value::Bool(true));
  };
  auto false_expr = [] {
    return std::make_unique<LiteralExpr>(Value::Bool(false));
  };
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
  BinaryExpr and1(BinaryOp::kAnd, null_expr(), false_expr());
  EXPECT_FALSE(and1.Eval(&eval, {})->is_null());
  EXPECT_FALSE(and1.Eval(&eval, {})->AsBool());
  BinaryExpr and2(BinaryOp::kAnd, null_expr(), true_expr());
  EXPECT_TRUE(and2.Eval(&eval, {})->is_null());
  // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
  BinaryExpr or1(BinaryOp::kOr, null_expr(), true_expr());
  EXPECT_TRUE(or1.Eval(&eval, {})->AsBool());
  BinaryExpr or2(BinaryOp::kOr, null_expr(), false_expr());
  EXPECT_TRUE(or2.Eval(&eval, {})->is_null());
}

TEST(ExpressionTest, ComparisonWithNullIsNull) {
  udf::EvalContext eval;
  BinaryExpr eq(BinaryOp::kEq, Lit(1),
                std::make_unique<LiteralExpr>(Value::Null()));
  EXPECT_TRUE(eq.Eval(&eval, {})->is_null());
  // ... and predicates treat it as false.
  Result<bool> keep = EvalPredicate(eq, &eval, {});
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(*keep);
}

TEST(ExpressionTest, IsNullAndCase) {
  udf::EvalContext eval;
  IsNullExpr is_null(std::make_unique<LiteralExpr>(Value::Null()), false);
  EXPECT_TRUE(is_null.Eval(&eval, {})->AsBool());
  IsNullExpr is_not_null(Lit(5), true);
  EXPECT_TRUE(is_not_null.Eval(&eval, {})->AsBool());

  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(
      std::make_unique<BinaryExpr>(BinaryOp::kGt, Lit(5), Lit(3)), Lit(10));
  CaseExpr case_expr(std::move(branches), Lit(20));
  EXPECT_EQ(case_expr.Eval(&eval, {})->AsInt64(), 10);
}

TEST(OperatorTest, FilterProjectPipeline) {
  auto db = OpenTestDb("filter");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 100, 10);
  OperatorPtr plan = std::make_unique<TableScanOp>(table);
  plan = std::make_unique<FilterOp>(
      std::move(plan), std::make_unique<BinaryExpr>(
                           BinaryOp::kLt, Col(1), Lit(10)));
  std::vector<ExprPtr> exprs;
  exprs.push_back(std::make_unique<BinaryExpr>(BinaryOp::kMul, Col(1), Lit(2)));
  plan = std::make_unique<ProjectOp>(std::move(plan), std::move(exprs),
                                     std::vector<std::string>{"doubled"});
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = plan->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[3][0].AsInt64(), 6);
}

// Yields `total` rows in full batches and records the capacity of the
// vector DrainIterator fills before each batch. The rows are zero-width:
// the vector's growth is under test, not the rows' contents.
class CapacityProbe : public storage::RowIterator {
 public:
  CapacityProbe(size_t total, const std::vector<Row>* dest)
      : total_(total), dest_(dest) {}

  bool NextBatch(RowBatch* batch) override {
    if (produced_ == total_) return false;
    capacities_.insert(dest_->capacity());
    const size_t n = std::min(RowBatch::kDefaultRows, total_ - produced_);
    batch->ResetColumns(0);
    batch->set_num_rows(n);
    produced_ += n;
    return true;
  }

  const std::set<size_t>& capacities() const { return capacities_; }

 private:
  const size_t total_;
  const std::vector<Row>* dest_;
  size_t produced_ = 0;
  std::set<size_t> capacities_;
};

// Fetch-all grows its vector geometrically: a per-batch exact reserve
// would give every batch a new capacity (and move every row each time).
TEST(OperatorTest, DrainIteratorGrowsGeometrically) {
  constexpr size_t kRows = 2'000'000;
  std::vector<Row> rows;
  CapacityProbe probe(kRows, &rows);
  ASSERT_TRUE(DrainIterator(&probe, &rows).ok());
  EXPECT_EQ(rows.size(), kRows);
  const double bound =
      2 * std::log2(static_cast<double>(kRows) / RowBatch::kDefaultRows);
  EXPECT_LE(static_cast<double>(probe.capacities().size()), bound)
      << probe.capacities().size() << " distinct capacities";
}

TEST(OperatorTest, HashAggregateGroups) {
  auto db = OpenTestDb("agg");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 100, 4);
  std::vector<ExprPtr> groups;
  groups.push_back(Col(0, DataType::kInt32));
  std::vector<AggSpec> aggs;
  AggSpec count;
  count.fn = db->functions()->FindAggregate("COUNT");
  count.display = "COUNT(*)";
  aggs.push_back(std::move(count));
  AggSpec sum;
  sum.fn = db->functions()->FindAggregate("SUM");
  sum.args.push_back(Col(1));
  sum.display = "SUM(v)";
  aggs.push_back(std::move(sum));
  OperatorPtr plan = std::make_unique<HashAggregateOp>(
      std::make_unique<TableScanOp>(table), std::move(groups),
      std::vector<std::string>{"k"}, std::move(aggs));
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = plan->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  ASSERT_EQ(rows.size(), 4u);
  int64_t total = 0;
  for (const Row& r : rows) {
    EXPECT_EQ(r[1].AsInt64(), 25);  // 100 rows over 4 groups
    total += r[2].AsInt64();
  }
  EXPECT_EQ(total, 99 * 100 / 2);
}

TEST(OperatorTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  auto db = OpenTestDb("emptyagg");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 0, 1);
  std::vector<AggSpec> aggs;
  AggSpec count;
  count.fn = db->functions()->FindAggregate("COUNT");
  count.display = "COUNT(*)";
  aggs.push_back(std::move(count));
  OperatorPtr plan = std::make_unique<HashAggregateOp>(
      std::make_unique<TableScanOp>(table), std::vector<ExprPtr>{},
      std::vector<std::string>{}, std::move(aggs));
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = plan->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
}

TEST(OperatorTest, ParallelAggregateMatchesSerial) {
  auto db = OpenTestDb("paragg");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 5000, 13);
  auto* heap = dynamic_cast<storage::HeapTable*>(table->table.get());
  ASSERT_NE(heap, nullptr);
  auto make_aggs = [&] {
    std::vector<AggSpec> aggs;
    AggSpec count;
    count.fn = db->functions()->FindAggregate("COUNT");
    count.display = "COUNT(*)";
    aggs.push_back(std::move(count));
    AggSpec mx;
    mx.fn = db->functions()->FindAggregate("MAX");
    mx.args.push_back(Col(1));
    mx.display = "MAX(v)";
    aggs.push_back(std::move(mx));
    return aggs;
  };
  std::vector<ExprPtr> groups;
  groups.push_back(Col(0, DataType::kInt32));
  // Morsels of 2 pages over a ~14-page heap exercise real work stealing.
  OperatorPtr parallel = std::make_unique<ParallelAggregateOp>(
      std::make_unique<TableScanOp>(table), table, std::move(groups),
      std::vector<std::string>{"k"}, make_aggs(), /*dop=*/4,
      /*morsel_pages=*/2);
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = parallel->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  ASSERT_EQ(rows.size(), 13u);
  int64_t count_total = 0;
  for (const Row& r : rows) count_total += r[1].AsInt64();
  EXPECT_EQ(count_total, 5000);
}

TEST(OperatorTest, ParallelAggregateWithFilterStage) {
  auto db = OpenTestDb("paraggfilter");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 5000, 13);
  auto* heap = dynamic_cast<storage::HeapTable*>(table->table.get());
  ASSERT_NE(heap, nullptr);
  // WHERE v >= 2500 as a filter over the scan, opened per morsel.
  OperatorPtr filter = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(table),
      std::make_unique<BinaryExpr>(BinaryOp::kGe, Col(1), Lit(int64_t{2500})));
  std::vector<AggSpec> aggs;
  AggSpec count;
  count.fn = db->functions()->FindAggregate("COUNT");
  count.display = "COUNT(*)";
  aggs.push_back(std::move(count));
  OperatorPtr parallel = std::make_unique<ParallelAggregateOp>(
      std::move(filter), table, std::vector<ExprPtr>{},
      std::vector<std::string>{}, std::move(aggs), /*dop=*/4,
      /*morsel_pages=*/2);
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = parallel->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 2500);
}

// GROUP BY k, s over ~100k distinct composite keys (NULLs among both key
// columns), so every table path grows through many doublings: the serial
// build and the DOP-4 partial tables with their partitioned final merge.
// Checked against a std::map oracle.
TEST(OperatorTest, GroupTableManyCompositeKeysMatchOracle) {
  auto db = OpenTestDb("groupkeys");
  catalog::TableDef def;
  def.name = "t";
  def.schema.AddColumn({.name = "k", .type = DataType::kInt32});
  def.schema.AddColumn({.name = "s", .type = DataType::kString});
  def.schema.AddColumn({.name = "v", .type = DataType::kInt64});
  ASSERT_TRUE(db->CreateTable(std::move(def)).ok());
  catalog::TableDef* table = *db->GetTable("t");
  constexpr int kDistinct = 100000;
  constexpr int kRows = 130000;  // every key once, some twice
  std::map<std::string, std::pair<int64_t, int64_t>> oracle;  // count, sum
  for (int i = 0; i < kRows; ++i) {
    const int j = i % kDistinct;
    const Value k = j % 97 == 0 ? Value::Null() : Value::Int32(j / 7);
    const Value s = j % 89 == 0 ? Value::Null()
                                : Value::String("key-" + std::to_string(j % 7));
    ASSERT_TRUE(
        storage::AppendRow(table->table.get(), Row{k, s, Value::Int64(i)})
            .ok());
    auto& [count, sum] = oracle[k.ToString() + "|" + s.ToString()];
    ++count;
    sum += i;
  }
  auto* heap = dynamic_cast<storage::HeapTable*>(table->table.get());
  ASSERT_NE(heap, nullptr);
  ASSERT_GT(oracle.size(), 90000u);

  auto make_groups = [] {
    std::vector<ExprPtr> groups;
    groups.push_back(Col(0, DataType::kInt32));
    groups.push_back(Col(1, DataType::kString));
    return groups;
  };
  auto make_aggs = [&] {
    std::vector<AggSpec> aggs;
    AggSpec count;
    count.fn = db->functions()->FindAggregate("COUNT");
    count.display = "COUNT(*)";
    aggs.push_back(std::move(count));
    AggSpec sum;
    sum.fn = db->functions()->FindAggregate("SUM");
    sum.args.push_back(Col(2));
    sum.display = "SUM(v)";
    aggs.push_back(std::move(sum));
    return aggs;
  };
  auto check = [&](OperatorPtr plan, const char* what) {
    ExecContext ctx = ExecContext::For(db.get());
    auto iter = plan->Open(&ctx);
    ASSERT_TRUE(iter.ok()) << what;
    std::vector<Row> rows;
    ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok()) << what;
    ASSERT_EQ(rows.size(), oracle.size()) << what;
    std::map<std::string, std::pair<int64_t, int64_t>> got;
    for (const Row& r : rows) {
      const std::string key = r[0].ToString() + "|" + r[1].ToString();
      ASSERT_TRUE(got.emplace(key, std::make_pair(r[2].AsInt64(),
                                                  r[3].AsInt64()))
                      .second)
          << what << ": group " << key << " emitted twice";
    }
    EXPECT_EQ(got, oracle) << what;
  };
  check(std::make_unique<HashAggregateOp>(
            std::make_unique<TableScanOp>(table), make_groups(),
            std::vector<std::string>{"k", "s"}, make_aggs()),
        "DOP 1");
  check(std::make_unique<ParallelAggregateOp>(
            std::make_unique<TableScanOp>(table), table, make_groups(),
            std::vector<std::string>{"k", "s"}, make_aggs(), /*dop=*/4,
            /*morsel_pages=*/8),
        "DOP 4");
}

TEST(ParallelTest, MakeMorselsCoversAllPages) {
  auto morsels = MakeMorsels(/*num_pages=*/10, /*morsel_pages=*/3);
  ASSERT_EQ(morsels.size(), 4u);
  size_t expected_first = 0;
  for (const Morsel& m : morsels) {
    EXPECT_EQ(m.first_page, expected_first);
    EXPECT_GT(m.end_page, m.first_page);
    expected_first = m.end_page;
  }
  EXPECT_EQ(morsels.back().end_page, 10u);
  EXPECT_TRUE(MakeMorsels(0, 3).empty());
  EXPECT_EQ(MakeMorsels(3, 8).size(), 1u);
}

TEST(ParallelTest, ChooseMorselPagesShrinksForSlack) {
  // Big table: capped at the default maximum.
  EXPECT_EQ(ChooseMorselPages(/*num_pages=*/10000, /*dop=*/4),
            kDefaultMorselPages);
  // Small table: shrunk so each worker sees several morsels.
  EXPECT_LT(ChooseMorselPages(/*num_pages=*/16, /*dop=*/4), 16u);
  EXPECT_GE(ChooseMorselPages(/*num_pages=*/16, /*dop=*/4), 1u);
  // Never zero, even on empty input.
  EXPECT_GE(ChooseMorselPages(0, 4), 1u);
}

TEST(ParallelTest, ParallelMapOpMatchesSerialOrder) {
  auto db = OpenTestDb("parmap");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 5000, 7);
  auto* heap = dynamic_cast<storage::HeapTable*>(table->table.get());
  ASSERT_NE(heap, nullptr);
  auto make_pred = [&]() -> ExprPtr {
    return std::make_unique<BinaryExpr>(BinaryOp::kLt, Col(1), Lit(int64_t{100}));
  };

  // Serial reference: scan + filter in heap order.
  std::vector<Row> serial;
  {
    OperatorPtr plan = std::make_unique<FilterOp>(
        std::make_unique<TableScanOp>(table), make_pred());
    ExecContext ctx = ExecContext::For(db.get());
    auto iter = plan->Open(&ctx);
    ASSERT_TRUE(iter.ok());
    ASSERT_TRUE(DrainIterator(iter->get(), &serial).ok());
  }

  OperatorPtr parallel = std::make_unique<ParallelMapOp>(
      std::make_unique<FilterOp>(std::make_unique<TableScanOp>(table),
                                 make_pred()),
      table, /*dop=*/4, /*morsel_pages=*/2);
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = parallel->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());

  ASSERT_EQ(rows.size(), serial.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), serial[i].size());
    for (size_t c = 0; c < rows[i].size(); ++c) {
      EXPECT_EQ(rows[i][c].Compare(serial[i][c]), 0) << "row " << i;
    }
  }
  EXPECT_NE(parallel->Describe().find("Gather Streams"), std::string::npos);
}

TEST(ParallelTest, ParallelSortMatchesSerial) {
  auto db = OpenTestDb("parsort");
  // Enough rows to cross the parallel-sort threshold.
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 6000, 17);
  auto run_sort = [&](int dop) {
    OperatorPtr plan = std::make_unique<TableScanOp>(table);
    std::vector<SortKey> keys;
    keys.push_back({Col(0, DataType::kInt32), false});  // group key: many ties
    plan = std::make_unique<SortOp>(std::move(plan), std::move(keys));
    ExecContext ctx = ExecContext::For(db.get());
    ctx.dop = dop;
    auto iter = plan->Open(&ctx);
    EXPECT_TRUE(iter.ok());
    std::vector<Row> rows;
    EXPECT_TRUE(DrainIterator(iter->get(), &rows).ok());
    return rows;
  };
  const std::vector<Row> serial = run_sort(1);
  const std::vector<Row> parallel = run_sort(4);
  ASSERT_EQ(serial.size(), parallel.size());
  // Ties broken by input order in both paths: byte-identical output.
  for (size_t i = 0; i < serial.size(); ++i) {
    for (size_t c = 0; c < serial[i].size(); ++c) {
      ASSERT_EQ(serial[i][c].Compare(parallel[i][c]), 0) << "row " << i;
    }
  }
}

TEST(OperatorTest, SortAndTop) {
  auto db = OpenTestDb("sort");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 50, 50);
  OperatorPtr plan = std::make_unique<TableScanOp>(table);
  std::vector<SortKey> keys;
  keys.push_back({Col(1), true});  // v DESC
  plan = std::make_unique<SortOp>(std::move(plan), std::move(keys));
  plan = std::make_unique<TopOp>(std::move(plan), 3);
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = plan->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1].AsInt64(), 49);
  EXPECT_EQ(rows[2][1].AsInt64(), 47);
}

TEST(OperatorTest, RowNumberAppendsRank) {
  auto db = OpenTestDb("rownum");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 5, 5);
  std::vector<SortKey> keys;
  keys.push_back({Col(1), true});
  OperatorPtr plan = std::make_unique<RowNumberOp>(
      std::make_unique<TableScanOp>(table), std::move(keys), "rank");
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = plan->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][1].AsInt64(), 4);  // highest v first
  EXPECT_EQ(rows[0][3].AsInt64(), 1);  // rank 1
  EXPECT_EQ(rows[4][3].AsInt64(), 5);
}

// Hash join and merge join must agree.
TEST(OperatorTest, HashAndMergeJoinAgree) {
  auto db = OpenTestDb("joins");
  // Clustered tables so merge join inputs stream in key order.
  catalog::TableDef left_def;
  left_def.name = "L";
  left_def.schema.AddColumn({.name = "id", .type = DataType::kInt64});
  left_def.schema.AddColumn({.name = "lv", .type = DataType::kString});
  left_def.clustered_key = {0};
  ASSERT_TRUE(db->CreateTable(std::move(left_def)).ok());
  catalog::TableDef right_def;
  right_def.name = "R";
  right_def.schema.AddColumn({.name = "id", .type = DataType::kInt64});
  right_def.schema.AddColumn({.name = "rv", .type = DataType::kString});
  right_def.clustered_key = {0};
  ASSERT_TRUE(db->CreateTable(std::move(right_def)).ok());
  catalog::TableDef* left = *db->GetTable("L");
  catalog::TableDef* right = *db->GetTable("R");
  // Left: ids 0..99 with duplicates every 10; right: even ids, some dup.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(storage::AppendRow(left->table.get(),
                                   Row{Value::Int64(i % 90),
                                       Value::String("l" + std::to_string(i))})
                    .ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(storage::AppendRow(right->table.get(),
                                   Row{Value::Int64(i * 2),
                                       Value::String("r" + std::to_string(i))})
                    .ok());
  }
  auto run = [&](bool merge) {
    std::vector<ExprPtr> lk, rk;
    lk.push_back(Col(0));
    rk.push_back(Col(0));
    OperatorPtr plan;
    if (merge) {
      plan = std::make_unique<MergeJoinOp>(
          std::make_unique<TableScanOp>(left),
          std::make_unique<TableScanOp>(right), std::move(lk), std::move(rk),
          std::vector<int>{0, 1, 2, 3});
    } else {
      plan = std::make_unique<HashJoinOp>(
          std::make_unique<TableScanOp>(left),
          std::make_unique<TableScanOp>(right), std::move(lk), std::move(rk),
          std::vector<int>{0, 1, 2, 3});
    }
    ExecContext ctx = ExecContext::For(db.get());
    auto iter = plan->Open(&ctx);
    EXPECT_TRUE(iter.ok());
    std::vector<Row> rows;
    EXPECT_TRUE(DrainIterator(iter->get(), &rows).ok());
    std::vector<std::string> keys;
    for (const Row& r : rows) {
      keys.push_back(r[0].ToString() + "|" + r[1].AsString() + "|" +
                     r[3].AsString());
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const auto hash_rows = run(false);
  const auto merge_rows = run(true);
  EXPECT_FALSE(hash_rows.empty());
  EXPECT_EQ(hash_rows, merge_rows);
}

TEST(OperatorTest, NestedLoopJoinWithResidual) {
  auto db = OpenTestDb("nlj");
  catalog::TableDef* a = MakeNumbersTable(db.get(), "a", 10, 10);
  catalog::TableDef* b = MakeNumbersTable(db.get(), "b", 10, 10);
  // Join on a.v < b.v (non-equi): pairs (i, j) with i < j → 45 rows.
  ExprPtr pred = std::make_unique<BinaryExpr>(BinaryOp::kLt, Col(1), Col(4));
  OperatorPtr plan = std::make_unique<NestedLoopJoinOp>(
      std::make_unique<TableScanOp>(a), std::make_unique<TableScanOp>(b),
      std::move(pred), std::vector<int>{0, 1, 2, 3, 4, 5});
  ExecContext ctx = ExecContext::For(db.get());
  auto iter = plan->Open(&ctx);
  ASSERT_TRUE(iter.ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainIterator(iter->get(), &rows).ok());
  EXPECT_EQ(rows.size(), 45u);
}

TEST(OperatorTest, ExplainRendersTree) {
  auto db = OpenTestDb("explain");
  catalog::TableDef* table = MakeNumbersTable(db.get(), "t", 10, 2);
  OperatorPtr plan = std::make_unique<FilterOp>(
      std::make_unique<TableScanOp>(table),
      std::make_unique<BinaryExpr>(BinaryOp::kGt, Col(1), Lit(5)));
  const std::string text = ExplainPlan(*plan);
  EXPECT_NE(text.find("Filter"), std::string::npos);
  EXPECT_NE(text.find("Table Scan [t]"), std::string::npos);
}

}  // namespace
}  // namespace htg::exec

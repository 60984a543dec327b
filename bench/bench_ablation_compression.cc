// Ablation (google-benchmark): row-codec and page-compression throughput
// and effectiveness across NONE/ROW/PAGE, on the two data regimes of the
// paper's storage study (repetitive DGE tags vs unique re-sequencing
// reads). Complements Tables 1/2 with the CPU-side cost of each level.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "common/random.h"
#include "storage/heap_table.h"
#include "storage/page.h"
#include "storage/row_codec.h"
#include "storage/tablespace.h"
#include "storage/vfs.h"

namespace htg::storage {
namespace {

Schema ReadSchema() {
  Schema schema;
  schema.AddColumn({.name = "r_id", .type = DataType::kInt64});
  schema.AddColumn({.name = "tile", .type = DataType::kInt32});
  schema.AddColumn({.name = "seq", .type = DataType::kString});
  schema.AddColumn({.name = "qual", .type = DataType::kString});
  return schema;
}

std::vector<Row> MakeRows(int n, bool repetitive) {
  Random rng(131);
  std::vector<std::string> tag_pool;
  for (int i = 0; i < 50; ++i) {
    std::string tag;
    for (int b = 0; b < 36; ++b) tag.push_back("ACGT"[rng.Uniform(4)]);
    tag_pool.push_back(std::move(tag));
  }
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string seq;
    if (repetitive) {
      seq = tag_pool[rng.Zipf(tag_pool.size(), 1.2)];
    } else {
      for (int b = 0; b < 36; ++b) seq.push_back("ACGT"[rng.Uniform(4)]);
    }
    std::string qual;
    for (int b = 0; b < 36; ++b) {
      qual.push_back(static_cast<char>('!' + 20 + rng.Uniform(20)));
    }
    rows.push_back(Row{Value::Int64(i), Value::Int32(i % 300),
                       Value::String(std::move(seq)),
                       Value::String(std::move(qual))});
  }
  return rows;
}

// The rows of MakeRows as one batch, the form PageBuilder::Add takes.
RowBatch MakeBatch(int n, bool repetitive) {
  RowBatch batch;
  for (Row& row : MakeRows(n, repetitive)) batch.AppendRow(std::move(row));
  return batch;
}

void BM_EncodeRow(benchmark::State& state) {
  const Schema schema = ReadSchema();
  const Compression mode = static_cast<Compression>(state.range(0));
  const std::vector<Row> rows = MakeRows(1000, false);
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    bench::CheckOk(EncodeRow(schema, rows[i % rows.size()], mode, &out),
                   "EncodeRow");
    bytes += out.size();
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetLabel(std::string(CompressionName(mode)));
}
BENCHMARK(BM_EncodeRow)->Arg(0)->Arg(1);

void BM_DecodeRow(benchmark::State& state) {
  const Schema schema = ReadSchema();
  const Compression mode = static_cast<Compression>(state.range(0));
  const std::vector<Row> rows = MakeRows(1000, false);
  std::vector<std::string> encoded;
  for (const Row& r : rows) {
    std::string out;
    bench::CheckOk(EncodeRow(schema, r, mode, &out), "EncodeRow");
    encoded.push_back(std::move(out));
  }
  const std::vector<int> columns = AllColumns(schema);
  size_t i = 0;
  for (auto _ : state) {
    Row row;
    bench::CheckOk(DecodeRow(schema, mode, Slice(encoded[i % encoded.size()]),
                             columns, &row),
                   "DecodeRow");
    benchmark::DoNotOptimize(row);
    ++i;
  }
  state.SetLabel(std::string(CompressionName(mode)));
}
BENCHMARK(BM_DecodeRow)->Arg(0)->Arg(1);

// Full page build+scan cycle per mode and regime; reports achieved
// compression ratio as a counter.
void BM_PageCycle(benchmark::State& state) {
  const Schema schema = ReadSchema();
  const Compression mode = static_cast<Compression>(state.range(0));
  const bool repetitive = state.range(1) == 1;
  const RowBatch rows = MakeBatch(80, repetitive);
  double ratio = 0;
  for (auto _ : state) {
    PageBuilder builder(&schema, mode);
    size_t raw = 0;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      bench::CheckOk(builder.Add(rows, r), "PageBuilder::Add");
    }
    raw = builder.raw_bytes();
    const std::string page = builder.Finish();
    ratio = static_cast<double>(page.size()) / raw;
    PageReader reader(&schema, Slice(page), AllColumns(schema));
    bench::CheckOk(reader.Init(), "PageReader::Init");
    Row row;
    int count = 0;
    while (reader.Next(&row)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.counters["compressed_ratio"] = ratio;
  state.SetLabel(std::string(CompressionName(mode)) +
                 (repetitive ? "/dge" : "/unique"));
}
BENCHMARK(BM_PageCycle)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1});

// Page build cost per mode on the repetitive (DGE) regime: every row
// goes through PageBuilder::Add, and a page is finished whenever the
// builder reaches its flush boundary, as a heap seals. Items are rows;
// finish_ns_per_row is the Finish() share (dictionary and page image).
void BM_PageBuilderFinish(benchmark::State& state) {
  const Schema schema = ReadSchema();
  const Compression mode = static_cast<Compression>(state.range(0));
  const RowBatch rows = MakeBatch(2000, true);
  PageBuilder builder(&schema, mode);
  int64_t finish_ns = 0;
  size_t bytes = 0;
  auto finish = [&] {
    const auto start = std::chrono::steady_clock::now();
    const std::string page = builder.Finish();
    finish_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    bytes += page.size();
  };
  for (auto _ : state) {
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      bench::CheckOk(builder.Add(rows, r), "PageBuilder::Add");
      if (builder.ShouldFlush()) finish();
    }
    if (!builder.empty()) finish();
  }
  const double total_rows =
      static_cast<double>(state.iterations()) * rows.num_rows();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.num_rows()));
  state.counters["finish_ns_per_row"] =
      total_rows > 0 ? static_cast<double>(finish_ns) / total_rows : 0;
  state.counters["page_bytes_per_row"] =
      total_rows > 0 ? static_cast<double>(bytes) / total_rows : 0;
  state.SetLabel(std::string(CompressionName(mode)));
}
BENCHMARK(BM_PageBuilderFinish)->Arg(0)->Arg(1)->Arg(2);

// Append+scan throughput of a heap table per compression mode: rows go
// in through TableStorage::AppendBatch, RowBatch::kDefaultRows at a time.
void BM_HeapInsertScan(benchmark::State& state) {
  const Compression mode = static_cast<Compression>(state.range(0));
  const std::vector<Row> rows = MakeRows(2000, true);
  std::vector<RowBatch> batches;
  for (const Row& r : rows) {
    if (batches.empty() || batches.back().full()) batches.emplace_back();
    batches.back().AppendRow(Row(r));
  }
  // Heap pages seal into a buffer pool; the default 64 MiB holds them all.
  BufferPool pool;
  std::unique_ptr<TableSpace> space = bench::CheckOk(
      TableSpace::Open(Vfs::Default(), "/tmp/htg_ablation_compression", &pool),
      "TableSpace::Open");
  HeapTable table(ReadSchema(), mode,
                  bench::CheckOk(space->CreateTableFile("heap"),
                                 "CreateTableFile"));
  for (auto _ : state) {
    uint64_t appended = 0;
    for (const RowBatch& batch : batches) {
      bench::CheckOk(table.AppendBatch(batch, kFrozenTxn, &appended),
                     "AppendBatch");
    }
    auto iter = table.NewScan();
    RowBatch batch;
    int count = 0;
    while (iter->NextBatch(&batch)) {
      count += static_cast<int>(batch.ActiveRows());
    }
    if (count != static_cast<int>(rows.size())) state.SkipWithError("lost rows");
    iter.reset();
    table.Truncate();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
  state.SetLabel(std::string(CompressionName(mode)));
}
BENCHMARK(BM_HeapInsertScan)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace htg::storage

BENCHMARK_MAIN();

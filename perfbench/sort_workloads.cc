// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// The two single-sort workloads, driven through RelationalSort's operator
// interface from benchmark-owned pool tasks:
//   catalog_sales_in_memory  Fig. 13's table, no memory limit
//   customer_spill           Fig. 14's VARCHAR keys, limit = footprint / 8
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "check.h"
#include "workload/tpcds.h"
#include "workloads.h"

namespace perfbench {

using namespace rowsort;

SortResult RunSort(const SortJob& job, ThreadPool& pool, SpanLog* spans,
                   uint64_t request,
                   const std::function<void(const DataChunk&)>& consume) {
  SortResult result;
  const Table& input = *job.input;
  RelationalSort sort(job.spec, input.types(), job.config);
  const Clock::time_point start = Clock::now();
  ScopedSpan root(spans, "sort", 0, request);

  std::atomic<uint64_t> next_chunk{0};
  std::vector<std::function<void()>> tasks;
  for (uint64_t t = 0; t < pool.thread_count(); ++t) {
    tasks.push_back([&] {
      ScopedSpan task(spans, "sink_task", root.id(), request);
      auto local = sort.MakeLocalState();
      while (true) {
        const uint64_t c = next_chunk.fetch_add(1);
        if (c >= input.ChunkCount()) break;
        ScopedSpan call(spans, "Sink", task.id(), request);
        if (!sort.Sink(*local, input.chunk(c)).ok()) break;
      }
      ScopedSpan call(spans, "CombineLocal", task.id(), request);
      (void)sort.CombineLocal(*local);  // a failure is sticky in status()
    });
  }
  pool.RunBatch(std::move(tasks));
  result.status = sort.status();
  if (result.status.ok()) {
    ScopedSpan call(spans, "Finalize", root.id(), request);
    result.status = sort.Finalize(&pool);
  }
  if (result.status.ok()) {
    ScopedSpan scan(spans, "scan", root.id(), request);
    uint64_t offset = 0;
    while (offset < sort.row_count()) {
      ScopedSpan call(spans, "ScanChunk", scan.id(), request);
      DataChunk chunk = input.NewChunk();
      const uint64_t produced = sort.ScanChunk(offset, &chunk);
      if (produced == 0) break;
      offset += produced;
      if (consume) consume(chunk);
    }
    result.rows = offset;
  }
  root.End();
  result.wall_s = SecondsSince(start);

  result.metrics = sort.metrics();
  result.reserved_after = sort.memory_tracker().reserved();
  if (const ProfileNode* spill = sort.profile().root().FindChild("spill")) {
    if (const ProfileNode* write = spill->FindChild("write")) {
      result.write_block_us_mean = write->latencies.mean_ns() / 1e3;
    }
    if (const ProfileNode* read = spill->FindChild("read")) {
      result.read_block_us_mean = read->latencies.mean_ns() / 1e3;
    }
  }
  return result;
}

namespace {

/// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct SortWorkload {
  std::function<Table(uint64_t seed)> make_input;
  SortSpec spec;
  SortEngineConfig config;
  /// customer_spill: the limit is 1/8 of an unlimited probe sort's tracked
  /// peak, measured during set-up.
  bool limit_from_probe = false;
};

SortWorkload Define(const std::string& name) {
  SortWorkload w;
  w.config.threads = 2;
  w.config.run_size_rows = 1 << 18;
  if (name == "catalog_sales_in_memory") {
    // TPC-DS SF10 / 3: about 4.8M rows, 4 INT32 keys with NULLs and heavy
    // duplicates; 2^18-row runs give about 18 resident runs.
    w.make_input = [](uint64_t seed) {
      TpcdsScale scale;
      scale.scale_factor = 10;
      scale.scale_divisor = 3;
      scale.seed = seed;
      return MakeCatalogSales(scale);
    };
    std::vector<SortColumn> keys;
    for (uint64_t c = 0; c < 4; ++c) keys.emplace_back(c, TypeId::kInt32);
    w.spec = SortSpec(keys);
  } else {
    // TPC-DS SF100 customer, 2M rows, ORDER BY c_last_name, c_first_name.
    w.make_input = [](uint64_t seed) {
      TpcdsScale scale;
      scale.scale_factor = 100;
      scale.seed = seed;
      return MakeCustomer(scale);
    };
    w.spec = SortSpec({SortColumn(4, TypeId::kVarchar),
                       SortColumn(5, TypeId::kVarchar)});
    w.limit_from_probe = true;
  }
  return w;
}

/// Blocking-path call times of one traced sort, from its spans.
struct PhaseCalls {
  double sink_s = 0;      ///< sort start to the last Sink's end
  double combine_s = 0;   ///< last Sink's end to the last CombineLocal's end
  double finalize_s = 0;
  double scan_s = 0;
};

std::map<uint64_t, PhaseCalls> DerivePhases(const std::vector<Span>& spans,
                                            std::vector<double>* sink_us) {
  struct Edges {
    int64_t start = std::numeric_limits<int64_t>::max();
    int64_t last_sink_end = 0;
    int64_t last_combine_end = 0;
    int64_t finalize_ns = 0;
    int64_t scan_ns = 0;
  };
  std::map<uint64_t, Edges> edges;
  for (const Span& s : spans) {
    Edges& e = edges[s.request];
    const std::string_view name = s.name;
    const int64_t ns = s.end_ns - s.start_ns;
    if (name == "sort") {
      e.start = s.start_ns;
    } else if (name == "Sink") {
      e.last_sink_end = std::max(e.last_sink_end, s.end_ns);
      sink_us->push_back(ns / 1e3);
    } else if (name == "CombineLocal") {
      e.last_combine_end = std::max(e.last_combine_end, s.end_ns);
    } else if (name == "Finalize") {
      e.finalize_ns = ns;
    } else if (name == "scan") {
      e.scan_ns = ns;
    }
  }
  std::map<uint64_t, PhaseCalls> phases;
  for (const auto& [request, e] : edges) {
    PhaseCalls& p = phases[request];
    p.sink_s = (e.last_sink_end - e.start) / 1e9;
    p.combine_s = std::max<int64_t>(e.last_combine_end - e.last_sink_end, 0) /
                  1e9;
    p.finalize_s = e.finalize_ns / 1e9;
    p.scan_s = e.scan_ns / 1e9;
  }
  return phases;
}

/// The layer split the workloads are designed for: a spilling sort moves
/// bytes through every spill stage and bypasses OVC; an in-memory sort
/// leaves every spill counter at 0 and lets OVC decide merge comparisons.
/// io_wait_us and write_behind_stalls are not required to be nonzero when
/// spilling: they stay 0 when the page cache absorbs every write.
void CheckLayerSplit(const SortMetrics& m, bool spills, Tally* tally) {
  const std::string sort = spills ? " on a spilling sort"
                                  : " on an in-memory sort";
  const std::pair<const char*, uint64_t> stages[] = {
      {"runs_spilled", m.runs_spilled},
      {"spill_bytes_raw", m.spill_bytes_raw},
      {"spill_bytes_compressed", m.spill_bytes_compressed},
      {"compress_us", m.compress_us},
      {"decompress_us", m.decompress_us},
      {"blocks_prefetched", m.blocks_prefetched},
  };
  for (const auto& [name, value] : stages) {
    tally->Check((value > 0) == spills, std::string("layer split: ") + name +
                                            " is " + std::to_string(value) +
                                            sort);
  }
  if (!spills) {
    tally->Check(m.io_wait_us == 0 && m.write_behind_stalls == 0,
                 "layer split: spill I/O waits" + sort);
  }
  tally->Check((m.ovc_decided > 0) != spills,
               "layer split: ovc_decided is " +
                   std::to_string(m.ovc_decided) + sort);
}

template <typename F>
double MedianOver(const std::vector<SortResult>& results, F field) {
  std::vector<double> values;
  for (const SortResult& r : results) values.push_back(field(r));
  return Median(values);
}

double Throughput(const std::vector<SortResult>& results) {
  double total = 0;
  for (const SortResult& r : results) total += r.wall_s;
  return total > 0 ? results.size() / total : 0;
}

void ReportLayers(const std::vector<SortResult>& traced,
                  const std::vector<SortResult>& untraced,
                  const SpanLog& spans, const ThreadPoolStatsSnapshot& pool,
                  uint64_t limit, uint64_t user_bytes, Report* report) {
  std::vector<double> sink_us;
  std::vector<double> sink_s, combine_s, finalize_s, scan_s;
  for (const auto& [request, p] : DerivePhases(spans.spans(), &sink_us)) {
    sink_s.push_back(p.sink_s);
    combine_s.push_back(p.combine_s);
    finalize_s.push_back(p.finalize_s);
    scan_s.push_back(p.scan_s);
  }
  report->Set("sink.call_s", Median(sink_s));
  report->Set("sink.chunk_us_p50", Median(sink_us));
  report->Set("combine.call_s", Median(combine_s));
  report->Set("finalize.call_s", Median(finalize_s));
  report->Set("scan.call_s", Median(scan_s));
  ReportEngineCounters(traced, limit, user_bytes, report);

  report->Set("pool.tasks", double(pool.tasks_executed) / traced.size());
  report->Set("pool.queue_wait_ms",
              pool.queue_wait_ns.total_ns() / 1e6 / traced.size());

  auto wall = [](const SortResult& r) { return r.wall_s; };
  report->Set("trace_overhead.sort_s",
              MedianOver(traced, wall) / MedianOver(untraced, wall));
  report->Set("trace_overhead.throughput_qps",
              Throughput(traced) / Throughput(untraced));
}

}  // namespace

uint64_t UserBytes(const Table& table) {
  uint64_t bytes = 0;
  for (uint64_t i = 0; i < table.ChunkCount(); ++i) {
    const DataChunk& chunk = table.chunk(i);
    for (uint64_t c = 0; c < chunk.ColumnCount(); ++c) {
      const Vector& column = chunk.column(c);
      const bool varchar = column.type().id() == TypeId::kVarchar;
      for (uint64_t r = 0; r < chunk.size(); ++r) {
        if (!column.validity().RowIsValid(r)) continue;
        bytes += varchar ? column.TypedData<string_t>()[r].size()
                         : static_cast<uint64_t>(column.type().FixedSize());
      }
    }
  }
  return bytes;
}

void ReportEngineCounters(const std::vector<SortResult>& sorts,
                          uint64_t limit, uint64_t user_bytes,
                          Report* report) {
  auto set = [&](const char* name, auto field) {
    report->Set(name, MedianOver(sorts, field));
  };
  using R = const SortResult&;
  set("sink.thread_s", [](R r) { return r.metrics.sink_seconds; });
  set("sink.scatter_fast_path",
      [](R r) { return double(r.metrics.scatter_fast_path); });
  set("run_sort.thread_s", [](R r) { return r.metrics.run_sort_seconds; });
  set("run_sort.runs", [](R r) { return double(r.metrics.runs_generated); });
  set("run_sort.compares",
      [](R r) { return double(r.metrics.run_generation_compares); });
  set("merge.thread_s", [](R r) { return r.metrics.merge_seconds; });
  set("merge.compares", [](R r) { return double(r.metrics.merge_compares); });
  set("merge.ovc_decided", [](R r) { return double(r.metrics.ovc_decided); });
  set("merge.ovc_fallback",
      [](R r) { return double(r.metrics.ovc_fallback_compares); });
  set("merge.ovc_decided_ratio", [](R r) {
    const double all = double(r.metrics.ovc_decided) +
                       double(r.metrics.ovc_fallback_compares);
    return all > 0 ? r.metrics.ovc_decided / all : 0.0;
  });
  set("merge.fan_in", [](R r) { return double(r.metrics.merge_fan_in); });
  set("merge.rows_bulk_copied",
      [](R r) { return double(r.metrics.rows_bulk_copied); });
  set("spill.runs", [](R r) { return double(r.metrics.runs_spilled); });
  set("spill.bytes_raw", [](R r) { return double(r.metrics.spill_bytes_raw); });
  set("spill.bytes_stored",
      [](R r) { return double(r.metrics.spill_bytes_compressed); });
  set("spill.bytes_per_input_byte", [&](R r) {
    return double(r.metrics.spill_bytes_compressed) / user_bytes;
  });
  set("spill.compress_ratio", [](R r) {
    return r.metrics.spill_bytes_compressed > 0
               ? double(r.metrics.spill_bytes_raw) /
                     r.metrics.spill_bytes_compressed
               : 0.0;
  });
  set("spill.io_wait_ms", [](R r) { return r.metrics.io_wait_us / 1e3; });
  set("spill.compress_ms", [](R r) { return r.metrics.compress_us / 1e3; });
  set("spill.decompress_ms",
      [](R r) { return r.metrics.decompress_us / 1e3; });
  set("spill.write_block_us_mean", [](R r) { return r.write_block_us_mean; });
  set("spill.read_block_us_mean", [](R r) { return r.read_block_us_mean; });
  set("spill.blocks_prefetched",
      [](R r) { return double(r.metrics.blocks_prefetched); });
  set("spill.write_behind_stalls",
      [](R r) { return double(r.metrics.write_behind_stalls); });
  set("mem.tracked_peak_mb",
      [](R r) { return r.metrics.peak_memory_bytes / kMiB; });
  set("mem.peak_over_limit", [&](R r) {
    return limit > 0 ? double(r.metrics.peak_memory_bytes) / limit : 0.0;
  });
}

void RunSortWorkload(const Options& options, const std::string& spill_dir,
                     SpanLog* spans, Report* report, Tally* tally) {
  const SortWorkload w = Define(options.workload);
  // Created once per workload; its threads run every sink task and merge.
  ThreadPool pool(w.config.threads);
  SortJob job;
  job.spec = w.spec;
  job.config = w.config;

  // Set-up: input generation, the footprint probe, and a warm-up sort.
  Table input;
  uint64_t limit = 0;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    input = Table();  // drop the previous copy before building the next
    input = w.make_input(options.seed);
    job.input = &input;
    if (w.limit_from_probe) {
      SortJob probe = job;
      probe.config.memory_limit_bytes = 0;
      probe.config.spill_directory.clear();
      const SortResult r = RunSort(probe, pool, nullptr, 0);
      tally->Check(r.status.ok(), "footprint probe: " + r.status.ToString());
      limit = r.metrics.peak_memory_bytes / 8;
      job.config.memory_limit_bytes = limit;
      // Only with a limit: a spill directory without one spills every run.
      job.config.spill_directory = spill_dir;
    }
    const SortResult warm = RunSort(job, pool, nullptr, 0);
    tally->Check(warm.status.ok() && warm.rows == input.row_count(),
                 "warm-up sort: " + warm.status.ToString());
    setup_s.push_back(SecondsSince(start));
  }
  const uint64_t rows = input.row_count();
  std::printf("# %llu input rows, memory limit %.2f MiB (0 = none)\n",
              (unsigned long long)rows, limit / kMiB);

  // Output check, outside the timed loop: row count, column checksums
  // against the input, and SQL order of every adjacent pair.
  {
    TableDigest got;
    OrderChecker order(job.spec);
    const SortResult r =
        RunSort(job, pool, nullptr, 0, [&](const DataChunk& chunk) {
          got.Add(chunk);
          order.Add(chunk);
        });
    tally->Check(r.status.ok(), "checked sort: " + r.status.ToString());
    tally->Check(got.rows == rows, "checked sort: row count differs");
    tally->Check(got == DigestOf(input),
                 "checked sort: column checksums differ from the input");
    tally->Check(order.unsupported().empty(),
                 "order check unsupported: " + order.unsupported());
    tally->Check(order.violations() == 0,
                 "checked sort: " + std::to_string(order.violations()) +
                     " adjacent rows out of order");
    tally->Check(r.reserved_after == 0,
                 "checked sort: " + std::to_string(r.reserved_after) +
                     " tracker bytes still reserved after the scan");
    // Only the limited workload spills, and OVC works only in memory.
    CheckLayerSplit(r.metrics, /*spills=*/w.limit_from_probe, tally);
  }

  // Timed loop. A traced run alternates untraced and traced sorts, so the
  // tracing overhead is measured under the same conditions.
  std::vector<SortResult> traced, untraced;
  uint64_t request = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < options.seconds || untraced.empty() ||
         (options.trace && traced.empty())) {
    const bool trace_this = options.trace && request % 2 == 1;
    SortJob timed = job;
    if (trace_this) {
      timed.config.count_comparisons = true;
      // Counting comparisons makes kAuto fall back to pdqsort; pin the run
      // sort kAuto picks without counting, so both halves sort alike.
      timed.config.algorithm = job.spec.NeedsTieResolution()
                                   ? RunSortAlgorithm::kPdq
                                   : RunSortAlgorithm::kRadix;
    }
    pool.EnableStats(trace_this);
    SortResult r = RunSort(timed, pool, trace_this ? spans : nullptr,
                           ++request);
    tally->Check(r.status.ok() && r.rows == rows && r.reserved_after == 0,
                 "timed sort " + std::to_string(request) + ": " +
                     r.status.ToString());
    (trace_this ? traced : untraced).push_back(std::move(r));
  }
  pool.EnableStats(false);

  if (options.trace) {
    ReportLayers(traced, untraced, *spans, pool.StatsSnapshot(), limit,
                 UserBytes(input), report);
    std::printf("# per-layer medians over %zu traced sorts (%zu untraced)\n",
                traced.size(), untraced.size());
    return;
  }
  std::vector<double> walls;
  for (const SortResult& r : untraced) walls.push_back(r.wall_s);
  report->Set("setup_s", Median(setup_s));
  report->Set("peak_rss_mb", PeakRssMib());
  report->Set("sort_s", Median(walls));
  report->Set("throughput_qps", Throughput(untraced));
  std::printf("# sort_s: median of %zu sorts; setup_s: median of %d set-ups\n"
              "# sort walls (s):",
              walls.size(), kSetupRepeats);
  for (double wall : walls) std::printf(" %.3f", wall);
  std::printf("\n# set-ups (s):");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
}

}  // namespace perfbench

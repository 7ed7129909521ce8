// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// service_mix: one SortService with 2 pool workers and a global budget of
// about one giant's footprint, driven by a closed loop of 2 client threads
// with no deadlines and no failpoints armed. Client 1 streams low-priority
// 400k-row sorts (giants) that must spill; client 2 sends interactive
// requests over 4 tenants in a repeating 5:3:1:1 cycle of 4k-row sorts,
// Top-100 over 100k rows, a rank window over 100k rows, and a 50k x 50k
// merge join.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>

#include "check.h"
#include "common/random.h"
#include "engine/merge_join.h"
#include "engine/top_n.h"
#include "engine/window.h"
#include "service/sort_service.h"
#include "workloads.h"

namespace perfbench {

using namespace rowsort;

namespace {

constexpr uint64_t kGiantRows = 400000;
constexpr uint64_t kSmallRows = 4000;
constexpr uint64_t kTopNRows = 100000;
constexpr uint64_t kTopNLimit = 100;
constexpr uint64_t kWindowRows = 100000;
constexpr uint64_t kJoinRows = 50000;
/// Set-up is repeated this often per run; setup_s is the median. A set-up
/// is short here, so it takes more repeats to steady its median.
constexpr int kSetupRepeats = 5;
/// Interactive cycles (of 10 requests) both clients run in each set-up.
constexpr uint64_t kWarmUpCycles = 3;
constexpr double kNoTimeLimit = std::numeric_limits<double>::infinity();
constexpr uint64_t kNoCycleLimit = std::numeric_limits<uint64_t>::max();
/// Submit / direct-sort pairs behind service.submit_overhead_us.
constexpr int kOverheadPairs = 100;
constexpr double kMiB = 1024.0 * 1024.0;

enum class RequestClass { kSmall, kTopN, kWindow, kJoin, kGiant };

const char* SpanName(RequestClass cls) {
  switch (cls) {
    case RequestClass::kSmall:
      return "Submit.small_sort";
    case RequestClass::kTopN:
      return "Submit.top_n";
    case RequestClass::kWindow:
      return "Submit.window";
    case RequestClass::kJoin:
      return "Submit.merge_join";
    case RequestClass::kGiant:
      return "Submit.giant_sort";
  }
  return "Submit";
}

/// The interactive client's repeating 5:3:1:1 cycle.
RequestClass InteractiveClass(uint64_t q) {
  switch (q % 10) {
    case 5:
    case 6:
    case 7:
      return RequestClass::kTopN;
    case 8:
      return RequestClass::kWindow;
    case 9:
      return RequestClass::kJoin;
    default:
      return RequestClass::kSmall;
  }
}

/// [INT32 key uniform in [0, key_range), INT64 row id].
Table MakeKeyed(uint64_t rows, uint64_t key_range, uint64_t seed) {
  Table table({TypeId::kInt32, TypeId::kInt64}, {"key", "id"});
  Random rng(seed);
  for (uint64_t produced = 0; produced < rows;) {
    const uint64_t n = std::min(kVectorSize, rows - produced);
    DataChunk chunk = table.NewChunk();
    int32_t* key = chunk.column(0).TypedData<int32_t>();
    int64_t* id = chunk.column(1).TypedData<int64_t>();
    for (uint64_t r = 0; r < n; ++r) {
      key[r] = static_cast<int32_t>(rng.Uniform(key_range));
      id[r] = static_cast<int64_t>(produced + r);
    }
    chunk.SetSize(n);
    table.Append(std::move(chunk));
    produced += n;
  }
  return table;
}

struct Inputs {
  Table small, giant, topn, window, join_left, join_right;

  explicit Inputs(uint64_t seed)
      : small(MakeKeyed(kSmallRows, 1u << 30, seed * 8 + 1)),
        giant(MakeKeyed(kGiantRows, 1u << 30, seed * 8 + 2)),
        topn(MakeKeyed(kTopNRows, 1u << 30, seed * 8 + 3)),
        // Windows and joins are over the express ceiling by design: they
        // are mid-tier traffic and take general slots.
        window(MakeKeyed(kWindowRows, 1u << 10, seed * 8 + 4)),
        join_left(MakeKeyed(kJoinRows, 1u << 16, seed * 8 + 5)),
        join_right(MakeKeyed(kJoinRows, 1u << 16, seed * 8 + 6)) {}
};

/// Inner-join cardinality counted from the key columns, independent of the
/// engine: the sum over keys of left count x right count.
uint64_t JoinCardinality(const Table& left, const Table& right) {
  std::unordered_map<int32_t, uint64_t> counts;
  for (uint64_t i = 0; i < left.ChunkCount(); ++i) {
    const DataChunk& chunk = left.chunk(i);
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      ++counts[chunk.column(0).TypedData<int32_t>()[r]];
    }
  }
  uint64_t rows = 0;
  for (uint64_t i = 0; i < right.ChunkCount(); ++i) {
    const DataChunk& chunk = right.chunk(i);
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      auto it = counts.find(chunk.column(0).TypedData<int32_t>()[r]);
      if (it != counts.end()) rows += it->second;
    }
  }
  return rows;
}

SortSpec KeySpec() { return SortSpec({SortColumn(0, TypeId::kInt32)}); }

WindowSpec RankSpec() {
  WindowSpec spec;
  spec.partition_by = {0};
  spec.order_by = {SortColumn(1, TypeId::kInt64)};
  return spec;
}

SortServiceConfig ServiceConfig(bool pool_stats) {
  SortServiceConfig config;
  config.threads = 2;
  // About one giant's footprint: giants cannot stay resident, so victim
  // spilling arbitrates while the interactive traffic squeezes through.
  config.memory_limit_bytes = kGiantRows * 24;
  config.pool_stats = pool_stats;
  return config;
}

/// Engine knobs shared by service requests and their direct references.
SortEngineConfig EngineConfig() {
  SortEngineConfig config;
  config.threads = 2;
  config.run_size_rows = 1 << 15;
  return config;
}

OperatorRequest MakeRequest(RequestClass cls, uint64_t q,
                            const std::string& spill_dir,
                            bool count_comparisons) {
  OperatorRequest request;
  request.engine = EngineConfig();
  // Spills only under the service's budget (a spill directory without any
  // limit would spill every run).
  request.engine.spill_directory = spill_dir;
  if (count_comparisons) {
    request.engine.count_comparisons = true;
    // Counting makes kAuto fall back to pdqsort; every key here is an
    // integer, so pin the radix sort kAuto picks without counting.
    request.engine.algorithm = RunSortAlgorithm::kRadix;
  }
  request.tenant = "tenant-" + std::to_string(q % 4);
  request.priority = q % 4 == 0 ? TaskPriority::kHigh : TaskPriority::kNormal;
  switch (cls) {
    case RequestClass::kGiant:
      request.tenant = "analytics";
      request.priority = TaskPriority::kLow;
      [[fallthrough]];
    case RequestClass::kSmall:
      request.op = OperatorKind::kSort;
      request.spec = KeySpec();
      break;
    case RequestClass::kTopN:
      request.op = OperatorKind::kTopN;
      request.spec = KeySpec();
      request.limit = kTopNLimit;
      break;
    case RequestClass::kWindow:
      request.op = OperatorKind::kWindow;
      request.window = RankSpec();
      request.functions = {WindowFunction::kRank};
      break;
    case RequestClass::kJoin:
      request.op = OperatorKind::kMergeJoin;
      request.keys = {{0, 0}};
      break;
  }
  return request;
}

StatusOr<Table> Submit(SortService& service, const Inputs& in,
                       RequestClass cls, const OperatorRequest& request,
                       SortMetrics* metrics) {
  switch (cls) {
    case RequestClass::kSmall:
      return service.Submit(in.small, request, metrics);
    case RequestClass::kTopN:
      return service.Submit(in.topn, request, metrics);
    case RequestClass::kWindow:
      return service.Submit(in.window, request, metrics);
    case RequestClass::kJoin:
      return service.Submit(in.join_left, in.join_right, request, metrics);
    case RequestClass::kGiant:
      return service.Submit(in.giant, request, metrics);
  }
  return Status::Internal("unknown request class");
}

uint64_t ExpectedRows(RequestClass cls, uint64_t join_rows) {
  switch (cls) {
    case RequestClass::kSmall:
      return kSmallRows;
    case RequestClass::kTopN:
      return kTopNLimit;
    case RequestClass::kWindow:
      return kWindowRows;
    case RequestClass::kJoin:
      return join_rows;
    case RequestClass::kGiant:
      return kGiantRows;
  }
  return 0;
}

/// One closed-loop measurement on one service.
struct Phase {
  double wall_s = 0;  ///< the interactive client's loop
  uint64_t interactive_done = 0;
  std::vector<double> small_ms, topn_ms, midtier_ms, giant_s;
  std::vector<SortResult> giants;  ///< engine counters of each giant
  Tally tally;
};

/// Runs both clients until the interactive one has spent \p seconds or
/// finished \p max_cycles cycles, whichever comes first.
Phase RunPhase(SortService& service, const Inputs& in, uint64_t join_rows,
               double seconds, uint64_t max_cycles,
               const std::string& spill_dir, SpanLog* spans,
               std::atomic<uint64_t>* next_request) {
  Phase phase;
  Tally giant_tally;
  std::atomic<bool> stop{false};
  const bool traced = spans != nullptr;

  // One request through Submit; true when it succeeded with the expected
  // row count. Wraps the call in a span carrying the request id.
  auto submit = [&](RequestClass cls, uint64_t q, uint64_t parent,
                    Tally* tally, double* seconds_out, SortMetrics* metrics) {
    const uint64_t id = next_request->fetch_add(1) + 1;
    const OperatorRequest request =
        MakeRequest(cls, q, spill_dir, traced);
    const Clock::time_point start = Clock::now();
    ScopedSpan span(spans, SpanName(cls), parent, id);
    StatusOr<Table> result = Submit(service, in, cls, request, metrics);
    span.End();
    *seconds_out = SecondsSince(start);
    const bool ok = result.ok() &&
                    result.value().row_count() == ExpectedRows(cls, join_rows);
    tally->Check(ok, std::string(SpanName(cls)) + ": " +
                         (result.ok() ? "wrong row count"
                                      : result.status().ToString()));
    return ok;
  };

  std::thread giants([&] {
    ScopedSpan client(spans, "client.giants", 0, 0);
    while (!stop.load()) {
      double s = 0;
      SortResult giant;
      if (submit(RequestClass::kGiant, 0, client.id(), &giant_tally, &s,
                 &giant.metrics)) {
        giant.wall_s = s;
        phase.giant_s.push_back(s);
        phase.giants.push_back(giant);
      }
    }
  });
  std::thread interactive([&] {
    ScopedSpan client(spans, "client.interactive", 0, 0);
    const Clock::time_point start = Clock::now();
    for (uint64_t q = 0;; ++q) {
      // Whole cycles only, so every phase keeps the 5:3:1:1 mix.
      if (q % 10 == 0 &&
          (q / 10 >= max_cycles || SecondsSince(start) >= seconds)) {
        break;
      }
      const RequestClass cls = InteractiveClass(q);
      double s = 0;
      if (!submit(cls, q, client.id(), &phase.tally, &s, nullptr)) continue;
      ++phase.interactive_done;
      if (cls == RequestClass::kSmall) {
        phase.small_ms.push_back(s * 1e3);
      } else if (cls == RequestClass::kTopN) {
        phase.topn_ms.push_back(s * 1e3);
      } else {
        phase.midtier_ms.push_back(s * 1e3);
      }
    }
    phase.wall_s = SecondsSince(start);
    stop.store(true);
  });
  interactive.join();
  giants.join();
  phase.tally.Merge(giant_tally);
  return phase;
}

/// Each request class once through Submit, checked independently of the
/// engine and, for Top-N, window and join, against a direct operator call.
void CheckOutputs(SortService& service, const Inputs& in, uint64_t join_rows,
                  const std::string& spill_dir, Tally* tally) {
  auto submit = [&](RequestClass cls) {
    StatusOr<Table> result =
        Submit(service, in, cls, MakeRequest(cls, 1, spill_dir, false),
               nullptr);
    tally->Check(result.ok(), std::string("check ") + SpanName(cls) + ": " +
                                  result.status().ToString());
    return result.ok() ? result.MoveValue() : Table();
  };
  auto check_sorted = [&](const Table& input, const Table& output,
                          const char* what) {
    OrderChecker order(KeySpec());
    order.Add(output);
    tally->Check(output.row_count() == input.row_count(),
                 std::string(what) + ": row count differs");
    tally->Check(DigestOf(output) == DigestOf(input),
                 std::string(what) + ": column checksums differ");
    tally->Check(order.violations() == 0,
                 std::string(what) + ": rows out of order");
  };
  check_sorted(in.small, submit(RequestClass::kSmall), "small sort");
  check_sorted(in.giant, submit(RequestClass::kGiant), "giant sort");

  const SortEngineConfig direct = EngineConfig();
  {
    const Table got = submit(RequestClass::kTopN);
    TopN top_n(KeySpec(), in.topn.types(), kTopNLimit, direct);
    for (uint64_t c = 0; c < in.topn.ChunkCount(); ++c) {
      tally->Check(top_n.Sink(in.topn.chunk(c)).ok(), "direct top-n sink");
    }
    StatusOr<Table> want = top_n.Finalize();
    tally->Check(want.ok() && SequenceHash(got) == SequenceHash(want.value()),
                 "top-n: service output differs from the direct call");
    // Independent reference: the 100 smallest keys, in order.
    std::vector<int32_t> keys;
    for (uint64_t c = 0; c < in.topn.ChunkCount(); ++c) {
      const DataChunk& chunk = in.topn.chunk(c);
      const int32_t* data = chunk.column(0).TypedData<int32_t>();
      keys.insert(keys.end(), data, data + chunk.size());
    }
    std::partial_sort(keys.begin(), keys.begin() + kTopNLimit, keys.end());
    std::vector<int32_t> got_keys;
    for (uint64_t c = 0; c < got.ChunkCount(); ++c) {
      const DataChunk& chunk = got.chunk(c);
      const int32_t* data = chunk.column(0).TypedData<int32_t>();
      got_keys.insert(got_keys.end(), data, data + chunk.size());
    }
    tally->Check(got_keys == std::vector<int32_t>(keys.begin(),
                                                  keys.begin() + kTopNLimit),
                 "top-n: keys are not the 100 smallest in order");
  }
  {
    const Table got = submit(RequestClass::kWindow);
    StatusOr<Table> want =
        ComputeWindow(in.window, RankSpec(), {WindowFunction::kRank}, direct);
    tally->Check(want.ok() && SequenceHash(got) == SequenceHash(want.value()),
                 "window: service output differs from the direct call");
    OrderChecker order(SortSpec(
        {SortColumn(0, TypeId::kInt32), SortColumn(1, TypeId::kInt64)}));
    order.Add(got);
    tally->Check(got.row_count() == kWindowRows && order.violations() == 0,
                 "window: rows missing or not in (partition, order) order");
  }
  {
    const Table got = submit(RequestClass::kJoin);
    StatusOr<Table> want =
        SortMergeJoin(in.join_left, in.join_right, {{0, 0}}, direct);
    tally->Check(want.ok() && DigestOf(got) == DigestOf(want.value()),
                 "join: service output differs from the direct call");
    tally->Check(got.row_count() == join_rows,
                 "join: row count differs from the key-count reference");
  }
}

/// Median Submit latency of a 4k-row sort on an idle service minus that of
/// the same sort run directly on a bench pool of the same size, in us.
double SubmitOverheadUs(SortService& service, const Inputs& in,
                        const std::string& spill_dir, ThreadPool& pool,
                        Tally* tally) {
  SortJob direct;
  direct.input = &in.small;
  direct.spec = KeySpec();
  direct.config = EngineConfig();
  const OperatorRequest request =
      MakeRequest(RequestClass::kSmall, 1, spill_dir, false);
  std::vector<double> submit_us, direct_us;
  for (int i = 0; i < kOverheadPairs; ++i) {
    Clock::time_point start = Clock::now();
    StatusOr<Table> result = service.Submit(in.small, request);
    submit_us.push_back(SecondsSince(start) * 1e6);
    tally->Check(result.ok(), "overhead probe submit");
    start = Clock::now();
    const SortResult r = RunSort(direct, pool, nullptr, 0);
    direct_us.push_back(SecondsSince(start) * 1e6);
    tally->Check(r.status.ok(), "overhead probe direct sort");
  }
  return Median(submit_us) - Median(direct_us);
}

double Qps(const Phase& phase) {
  return phase.wall_s > 0 ? phase.interactive_done / phase.wall_s : 0;
}

void ReportServiceLayers(const Phase& untraced, const Phase& traced,
                         const SortService& service,
                         const SortServiceStats& before,
                         const ThreadPoolStatsSnapshot& pool_before,
                         uint64_t giant_user_bytes, Report* report) {
  ReportEngineCounters(traced.giants, 0, giant_user_bytes, report);
  const MemoryTracker& tracker = service.memory_tracker();
  report->Set("mem.tracked_peak_mb", tracker.peak() / kMiB);
  report->Set("mem.peak_over_limit", double(tracker.peak()) / tracker.limit());

  const uint64_t requests = traced.interactive_done + traced.giants.size();
  const ThreadPoolStatsSnapshot pool = service.PoolStatsSnapshot();
  report->Set("pool.tasks",
              double(pool.tasks_executed - pool_before.tasks_executed) /
                  requests);
  report->Set("pool.queue_wait_ms", (pool.queue_wait_ns.total_ns() -
                                     pool_before.queue_wait_ns.total_ns()) /
                                        1e6 / requests);

  const SortServiceStats after = service.StatsSnapshot();
  const uint64_t waits =
      after.queue_wait_ns.count() - before.queue_wait_ns.count();
  report->Set("service.queue_wait_mean_ms",
              waits == 0 ? 0
                         : (after.queue_wait_ns.total_ns() -
                            before.queue_wait_ns.total_ns()) /
                               1e6 / waits);
  report->Set("service.victim_spills",
              double(after.victim_spills - before.victim_spills));
  report->Set("service.victim_mb_freed",
              (after.victim_bytes_freed - before.victim_bytes_freed) / kMiB);
  report->Set("service.express_admitted",
              double(after.express_admitted - before.express_admitted));
  report->Set("service.max_queue_depth", double(after.max_queue_depth));
  report->Set("service.small_p50_ms", Median(traced.small_ms));
  report->Set("service.topn_p50_ms", Median(traced.topn_ms));
  report->Set("service.midtier_p50_ms", Median(traced.midtier_ms));
  report->Set("trace_overhead.sort_s",
              Median(traced.giant_s) / Median(untraced.giant_s));
  report->Set("trace_overhead.throughput_qps", Qps(traced) / Qps(untraced));
}

}  // namespace

void RunServiceMix(const Options& options, const std::string& spill_dir,
                   SpanLog* spans, Report* report, Tally* tally) {
  // Set-up: inputs, service construction, and a warm-up of both clients
  // together for a few cycles, so the timed phase starts with the heap
  // already grown to the concurrent mix's needs.
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<SortService> service;
  uint64_t join_rows = 0;
  std::vector<double> setup_s;
  std::atomic<uint64_t> next_request{0};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    service.reset();
    inputs.reset();
    inputs = std::make_unique<Inputs>(options.seed);
    join_rows = JoinCardinality(inputs->join_left, inputs->join_right);
    service = std::make_unique<SortService>(ServiceConfig(false));
    const Phase warm_up =
        RunPhase(*service, *inputs, join_rows, kNoTimeLimit, kWarmUpCycles,
                 spill_dir, nullptr, &next_request);
    tally->Merge(warm_up.tally);
    setup_s.push_back(SecondsSince(start));
  }

  // Untraced phase: the whole run, or the first half of a traced run.
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Phase untraced = RunPhase(*service, *inputs, join_rows, untraced_seconds,
                            kNoCycleLimit, spill_dir, nullptr, &next_request);
  tally->Merge(untraced.tally);
  CheckOutputs(*service, *inputs, join_rows, spill_dir, tally);
  tally->Check(service->memory_tracker().reserved() == 0,
               "service tracker bytes still reserved");

  if (!options.trace) {
    report->Set("setup_s", Median(setup_s));
    report->Set("peak_rss_mb", PeakRssMib());
    report->Set("sort_s", Median(untraced.giant_s));
    report->Set("throughput_qps", Qps(untraced));
    std::printf(
        "# interactive: %llu requests in %.3f s; giants: %zu\n"
        "# small_p50_ms %.4f  small_p99_ms %.4f  (n=%zu)\n"
        "# topn_p50_ms %.4f (n=%zu)  midtier_p50_ms %.4f (n=%zu)\n"
        "# giant_p50_s %.4f (n=%zu) = sort_s; setup_s: median of %d\n",
        (unsigned long long)untraced.interactive_done, untraced.wall_s,
        untraced.giant_s.size(), Median(untraced.small_ms),
        Quantile(untraced.small_ms, 0.99), untraced.small_ms.size(),
        Median(untraced.topn_ms), untraced.topn_ms.size(),
        Median(untraced.midtier_ms), untraced.midtier_ms.size(),
        Median(untraced.giant_s), untraced.giant_s.size(), kSetupRepeats);
    return;
  }

  // Traced phase on a fresh service with pool statistics on.
  service.reset();
  SortService traced_service(ServiceConfig(true));
  ThreadPool pool(2);  // bench pool for the direct reference sorts
  report->Set("service.submit_overhead_us",
              SubmitOverheadUs(traced_service, *inputs, spill_dir, pool,
                               tally));
  const SortServiceStats before = traced_service.StatsSnapshot();
  const ThreadPoolStatsSnapshot pool_before =
      traced_service.PoolStatsSnapshot();
  Phase traced = RunPhase(traced_service, *inputs, join_rows,
                          options.seconds / 2, kNoCycleLimit, spill_dir,
                          spans, &next_request);
  tally->Merge(traced.tally);
  tally->Check(traced_service.memory_tracker().reserved() == 0,
               "traced service tracker bytes still reserved");
  ReportServiceLayers(untraced, traced, traced_service, before, pool_before,
                      UserBytes(inputs->giant), report);
  std::printf("# per-layer: %zu traced giants, %llu traced interactive\n",
              traced.giants.size(),
              (unsigned long long)traced.interactive_done);
}

}  // namespace perfbench

// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// Shared pieces of the pipeline benchmark: run options, raw-sample
// quantiles, the in-memory span log, the pass/fail tally, and the metric
// report printed as the last line of a run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  ///< spill files and trace output go here
  std::string commit = "unknown";
};

/// Quantile of raw samples, interpolated between the two nearest ranks
/// (no bucketing). 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

/// One timed interval recorded by the benchmark around a public call.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< every span of one sort / request shares it
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans kept in memory while the run measures, written out once at the
/// end (Chrome trace-event JSON, loadable in Perfetto).
class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  /// Read only after every recording thread has been joined.
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteChromeJson(const std::string& path,
                       const std::string& provenance_json) const;

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{0};
};

/// Records one span for its scope; without a log it reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void End();

 private:
  SpanLog* log_;
  Span span_;
};

/// Operations attempted and failed: timed operations, output checks and
/// leak checks all count. fail_ratio = failed / attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void Check(bool ok, const std::string& what);
  void Merge(const Tally& other);
};

/// The metric values one run sets. Names and units are BENCHMARK.json's:
/// perfbench/run.py attaches the units, checks the names against the
/// active set, and reads a per-layer metric the run did not set as 0 (a
/// layer the workload bypasses).
class Report {
 public:
  /// A non-finite value is stored as 0.
  void Set(const std::string& name, double value);
  /// Prints fail_ratio and the first failures, then, as the last line, the
  /// JSON object {"correct", "attempted", "failed", "values"}.
  void Print(const Tally& tally) const;

 private:
  std::map<std::string, double> values_;
};

/// Provenance printed with every result and stored in the trace file.
std::string ProvenanceJson(const Options& options,
                           const std::string& spill_dir);

/// getrusage max RSS of this process, MiB.
double PeakRssMib();

/// Regular files and directories below \p dir (0 when it does not exist).
uint64_t CountEntries(const std::string& dir);

}  // namespace perfbench

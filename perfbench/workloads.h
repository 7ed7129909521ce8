// Copyright 2026 the rowsort authors. Licensed under the MIT license.
#pragma once

#include <functional>
#include <string>

#include "engine/sort_engine.h"
#include "harness.h"
#include "parallel/thread_pool.h"

namespace perfbench {

/// One sort through the operator interface of Fig. 11.
struct SortJob {
  const rowsort::Table* input = nullptr;
  rowsort::SortSpec spec;
  rowsort::SortEngineConfig config;
};

struct SortResult {
  rowsort::Status status;
  double wall_s = 0;  ///< first Sink to last ScanChunk
  uint64_t rows = 0;  ///< rows scanned
  /// Bytes the sort's tracker still holds once the scan is done.
  uint64_t reserved_after = 0;
  rowsort::SortMetrics metrics;
  double write_block_us_mean = 0;  ///< from the profile's spill node
  double read_block_us_mean = 0;
};

/// Sinks \p job.input morsel-wise from one task per pool thread (Sink, then
/// CombineLocal), runs Finalize on \p pool, and scans every row back with
/// ScanChunk. Each call is wrapped in a span when \p spans is set; every
/// output chunk goes to \p consume when it is set.
SortResult RunSort(
    const SortJob& job, rowsort::ThreadPool& pool, SpanLog* spans,
    uint64_t request,
    const std::function<void(const rowsort::DataChunk&)>& consume = nullptr);

/// User-data bytes of a table: fixed-width values at their width, VARCHAR
/// values at their length, NULLs at nothing.
uint64_t UserBytes(const rowsort::Table& table);

/// Sets the per-layer metrics read from the engine's own counters
/// (SortMetrics and the SortProfile spill node): the median over \p sorts.
/// \p limit is the memory limit the sorts ran under (0 = none).
void ReportEngineCounters(const std::vector<SortResult>& sorts,
                          uint64_t limit, uint64_t user_bytes,
                          Report* report);

/// catalog_sales_in_memory and customer_spill.
void RunSortWorkload(const Options& options, const std::string& spill_dir,
                     SpanLog* spans, Report* report, Tally* tally);

/// service_mix.
void RunServiceMix(const Options& options, const std::string& spill_dir,
                   SpanLog* spans, Report* report, Tally* tally);

}  // namespace perfbench

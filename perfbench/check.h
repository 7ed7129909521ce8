// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// Output checks for the pipeline benchmark, written independently of the
// engine: nothing here uses normalized keys, the engine's comparators, or
// its row formats. Values are read straight from the DataChunks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sortkey/sort_spec.h"
#include "vector/data_chunk.h"
#include "workload/tables.h"

namespace perfbench {

/// Order-insensitive digest of a table: per column, the wrapping sum of a
/// hash of every value (NULL hashes to its own constant) and the NULL
/// count; plus the wrapping sum of a per-row hash over all columns, so a
/// permutation that breaks rows apart shows too.
struct TableDigest {
  uint64_t rows = 0;
  std::vector<uint64_t> column_sums;
  std::vector<uint64_t> column_nulls;
  uint64_t row_sum = 0;

  void Add(const rowsort::DataChunk& chunk);
  bool operator==(const TableDigest& other) const = default;
};

TableDigest DigestOf(const rowsort::Table& table);

/// Order-sensitive hash of a table's rows, for outputs that must match a
/// reference row for row.
uint64_t SequenceHash(const rowsort::Table& table);

/// Checks that rows arrive in ORDER BY order, using a comparator written
/// from SQL semantics: ASC/DESC per term, NULLS FIRST/LAST independent of
/// direction, signed integer order, VARCHAR in unsigned byte order with a
/// shorter string first on a common prefix. Only binary collation and the
/// INT32, INT64 and VARCHAR key types are supported (all the benchmark
/// sorts by). Rows are fed chunk by chunk; the last row is kept across
/// chunk boundaries.
class OrderChecker {
 public:
  explicit OrderChecker(rowsort::SortSpec spec);

  void Add(const rowsort::DataChunk& chunk);
  void Add(const rowsort::Table& table);

  uint64_t rows() const { return rows_; }
  /// Adjacent pairs found out of order.
  uint64_t violations() const { return violations_; }
  /// Non-empty when the spec uses something this checker cannot judge.
  const std::string& unsupported() const { return unsupported_; }

 private:
  struct Key {
    bool null = false;
    int64_t integer = 0;
    std::string text;
  };
  void Load(const rowsort::DataChunk& chunk, uint64_t row,
            std::vector<Key>* out) const;
  int Compare(const std::vector<Key>& a, const std::vector<Key>& b) const;

  rowsort::SortSpec spec_;
  std::vector<Key> previous_;
  std::vector<Key> current_;
  uint64_t rows_ = 0;
  uint64_t violations_ = 0;
  std::string unsupported_;
};

}  // namespace perfbench

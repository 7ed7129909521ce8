// Copyright 2026 the rowsort authors. Licensed under the MIT license.
#include "check.h"

#include <cstring>

#include "types/string_t.h"

namespace perfbench {

using rowsort::DataChunk;
using rowsort::Table;
using rowsort::TypeId;
using rowsort::Vector;

namespace {

constexpr uint64_t kNullHash = 0x6e756c6c6e756c6cull;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const char* data, uint64_t size) {  // FNV-1a
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t i = 0; i < size; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001b3ull;
  }
  return Mix(h ^ size);
}

uint64_t HashValue(const Vector& column, uint64_t row) {
  if (!column.validity().RowIsValid(row)) return kNullHash;
  if (column.type().id() == TypeId::kVarchar) {
    const rowsort::string_t& s =
        column.TypedData<rowsort::string_t>()[row];
    return HashBytes(s.data(), s.size());
  }
  const uint64_t width = static_cast<uint64_t>(column.type().FixedSize());
  uint64_t bits = 0;
  std::memcpy(&bits, column.data() + row * width, width < 8 ? width : 8);
  return Mix(bits);
}

uint64_t HashRow(const DataChunk& chunk, uint64_t row) {
  uint64_t h = 0;
  for (uint64_t c = 0; c < chunk.ColumnCount(); ++c) {
    h = Mix(h ^ HashValue(chunk.column(c), row) ^ (c << 56));
  }
  return h;
}

}  // namespace

void TableDigest::Add(const DataChunk& chunk) {
  if (column_sums.empty()) {
    column_sums.assign(chunk.ColumnCount(), 0);
    column_nulls.assign(chunk.ColumnCount(), 0);
  }
  for (uint64_t c = 0; c < chunk.ColumnCount(); ++c) {
    const Vector& column = chunk.column(c);
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      column_sums[c] += HashValue(column, r);
      column_nulls[c] += column.validity().RowIsValid(r) ? 0 : 1;
    }
  }
  for (uint64_t r = 0; r < chunk.size(); ++r) row_sum += HashRow(chunk, r);
  rows += chunk.size();
}

TableDigest DigestOf(const Table& table) {
  TableDigest digest;
  for (uint64_t i = 0; i < table.ChunkCount(); ++i) digest.Add(table.chunk(i));
  return digest;
}

uint64_t SequenceHash(const Table& table) {
  uint64_t h = 0;
  for (uint64_t i = 0; i < table.ChunkCount(); ++i) {
    const DataChunk& chunk = table.chunk(i);
    for (uint64_t r = 0; r < chunk.size(); ++r) {
      h = Mix(h ^ HashRow(chunk, r));
    }
  }
  return Mix(h ^ table.row_count());
}

OrderChecker::OrderChecker(rowsort::SortSpec spec) : spec_(std::move(spec)) {
  for (const rowsort::SortColumn& term : spec_.columns()) {
    const TypeId id = term.type.id();
    if (id != TypeId::kInt32 && id != TypeId::kInt64 &&
        id != TypeId::kVarchar) {
      unsupported_ = "key type " + term.type.ToString();
    }
    if (id == TypeId::kVarchar &&
        term.collation != rowsort::Collation::kBinary) {
      unsupported_ = "non-binary collation";
    }
  }
}

void OrderChecker::Load(const DataChunk& chunk, uint64_t row,
                        std::vector<Key>* out) const {
  out->resize(spec_.ColumnCount());
  for (uint64_t k = 0; k < spec_.ColumnCount(); ++k) {
    const Vector& column = chunk.column(spec_.columns()[k].column_index);
    Key& key = (*out)[k];
    key.null = !column.validity().RowIsValid(row);
    if (key.null) continue;
    switch (column.type().id()) {
      case TypeId::kInt32:
        key.integer = column.TypedData<int32_t>()[row];
        break;
      case TypeId::kInt64:
        key.integer = column.TypedData<int64_t>()[row];
        break;
      default: {
        const rowsort::string_t& s =
            column.TypedData<rowsort::string_t>()[row];
        key.text.assign(s.data(), s.size());
      }
    }
  }
}

int OrderChecker::Compare(const std::vector<Key>& a,
                          const std::vector<Key>& b) const {
  for (uint64_t k = 0; k < spec_.ColumnCount(); ++k) {
    const rowsort::SortColumn& term = spec_.columns()[k];
    if (a[k].null || b[k].null) {
      if (a[k].null && b[k].null) continue;
      // NULL placement does not flip with DESC.
      const bool nulls_last = term.null_order == rowsort::NullOrder::kNullsLast;
      return a[k].null == nulls_last ? 1 : -1;
    }
    int cmp = 0;
    if (term.type.id() == TypeId::kVarchar) {
      const std::string& x = a[k].text;
      const std::string& y = b[k].text;
      const uint64_t common = x.size() < y.size() ? x.size() : y.size();
      cmp = std::memcmp(x.data(), y.data(), common);  // unsigned bytes
      if (cmp == 0 && x.size() != y.size()) cmp = x.size() < y.size() ? -1 : 1;
    } else if (a[k].integer != b[k].integer) {
      cmp = a[k].integer < b[k].integer ? -1 : 1;
    }
    if (cmp != 0) {
      return term.order == rowsort::OrderType::kDescending ? -cmp : cmp;
    }
  }
  return 0;
}

void OrderChecker::Add(const DataChunk& chunk) {
  for (uint64_t r = 0; r < chunk.size(); ++r) {
    Load(chunk, r, &current_);
    if (rows_ > 0 && Compare(previous_, current_) > 0) ++violations_;
    previous_.swap(current_);
    ++rows_;
  }
}

void OrderChecker::Add(const Table& table) {
  for (uint64_t i = 0; i < table.ChunkCount(); ++i) Add(table.chunk(i));
}

}  // namespace perfbench

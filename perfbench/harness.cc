// Copyright 2026 the rowsort authors. Licensed under the MIT license.
#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

std::string FilesystemName(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53:
      return "ext2/3/4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
                       uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.thread = ThreadIndex();
  span_.start_ns = NowNs();
}

void ScopedSpan::End() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  log_->Add(span_);
  log_ = nullptr;
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              const std::string& provenance_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
               provenance_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}%s\n",
                 s.name, s.thread, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 16) errors.push_back(what);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 16) errors.push_back(e);
  }
}

void Report::Set(const std::string& name, double value) {
  values_[name] = std::isfinite(value) ? value : 0;
}

void Report::Print(const Tally& tally) const {
  const double ratio =
      tally.attempted == 0 ? 0 : double(tally.failed) / tally.attempted;
  std::printf("  %-30s %16.6f ratio (%llu failed of %llu attempted)\n",
              "fail_ratio", ratio, (unsigned long long)tally.failed,
              (unsigned long long)tally.attempted);
  for (const std::string& e : tally.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"values\": {",
              tally.failed == 0 ? "true" : "false",
              (unsigned long long)tally.attempted,
              (unsigned long long)tally.failed);
  const char* sep = "";
  for (const auto& [name, value] : values_) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string ProvenanceJson(const Options& options,
                           const std::string& spill_dir) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"commit\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"failpoints_compiled\": %s, \"failpoints_armed\": 0, "
      "\"spill_fs\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}",
      options.commit.c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE,
      rowsort::failpoint::Enabled() ? "true" : "false",
      FilesystemName(spill_dir).c_str(), options.workload.c_str(),
      (unsigned long long)options.seed, options.seconds,
      options.trace ? 1 : 0);
  return buf;
}

double PeakRssMib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint64_t CountEntries(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  uint64_t count = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    ++count;
  }
  return count;
}

}  // namespace perfbench

// Copyright 2026 the rowsort authors. Licensed under the MIT license.
//
// Pipeline benchmark binary (perfbench/README.md):
//
//   pipeline_bench --workload <catalog_sales_in_memory|customer_spill|
//                              service_mix>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--commit <sha>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer metrics and writes its spans to
// <work-dir>/traces/. Spill files go under <work-dir> and must be gone when
// the workload ends. The last stdout line is a JSON object of the metric
// values the run set (perfbench/run.py turns it into the result); the exit
// code is 0 only when every operation and check passed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Options;

void Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--commit <sha>]\n");
}

bool Parse(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options->seconds = std::stod(value);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0 &&
         (options->workload == "catalog_sales_in_memory" ||
          options->workload == "customer_spill" ||
          options->workload == "service_mix");
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  Options options;
  try {
    if (!Parse(argc, argv, &options)) {
      Usage();
      return 2;
    }
  } catch (const std::exception&) {
    Usage();
    return 2;
  }

  // Spill files land in spill/; tmp/ catches any private spill directory
  // an engine creates under the temp path. Both must be empty at the end.
  const fs::path root = fs::path(options.work_dir) /
                        ("run-" + options.workload + "-" +
                         std::to_string(getpid()));
  const std::string spill_dir = (root / "spill").string();
  const std::string tmp_dir = (root / "tmp").string();
  fs::create_directories(spill_dir);
  fs::create_directories(tmp_dir);
  setenv("TMPDIR", tmp_dir.c_str(), 1);
  // No failpoint is ever armed, not even from the environment.
  unsetenv("ROWSORT_FAILPOINTS");

  const std::string provenance = perfbench::ProvenanceJson(options, spill_dir);
  std::printf("# provenance %s\n", provenance.c_str());

  perfbench::SpanLog spans;
  perfbench::Report report;
  perfbench::Tally tally;
  try {
    if (options.workload == "service_mix") {
      perfbench::RunServiceMix(options, spill_dir, &spans, &report, &tally);
    } else {
      perfbench::RunSortWorkload(options, spill_dir, &spans, &report, &tally);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    fs::remove_all(root);
    return 2;
  }
  tally.Check(perfbench::CountEntries(spill_dir) +
                      perfbench::CountEntries(tmp_dir) ==
                  0,
              "files left in the spill directory");
  fs::remove_all(root);

  if (options.trace) {
    const fs::path trace_dir = fs::path(options.work_dir) / "traces";
    fs::create_directories(trace_dir);
    const std::string path =
        (trace_dir / (options.workload + "-seed" +
                      std::to_string(options.seed) + ".json"))
            .string();
    if (spans.WriteChromeJson(path, provenance)) {
      std::printf("# %zu spans written to %s\n", spans.spans().size(),
                  path.c_str());
    } else {
      tally.Check(false, "cannot write " + path);
    }
  }
  report.Print(tally);
  return tally.failed == 0 ? 0 : 1;
}

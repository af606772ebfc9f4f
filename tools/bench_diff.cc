// bench_diff — deterministic perf-regression comparator over two metrics
// JSON artifacts (a committed baseline vs. a fresh run).
//
//   bench_diff BASELINE.json CURRENT.json [--threshold PCT] [--skip a,b,...]
//
// Both inputs may be bare MetricsSnapshot documents ({"counters": ...}) or
// any wrapper with a "metrics" member — the CLI's --metrics-out artifact and
// the bench harness's <figure>.metrics.json both qualify.
//
// Gating model (DESIGN.md §9): WORK COUNTERS (nodes visited, bound
// computations, pages read, ...) are deterministic for a fixed dataset, seed
// and query set, so they are compared exactly — a counter increase beyond
// --threshold percent (default 0: any increase) is a REGRESSION and the exit
// code is 1. Counter decreases are reported as IMPROVEMENT (exit 0; refresh
// the baseline to lock them in). Gauges and histograms carry timing, which
// is machine-dependent — drift there is WARN-only, never a failure.
//
// Exit codes: 0 = no counter regressions, 1 = regression, 2 = usage/IO/parse.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/obs/json.h"
#include "rst/obs/metrics.h"

namespace rst {
namespace {

Result<obs::MetricsSnapshot> LoadSnapshot(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(content.value());
  if (!parsed.ok()) {
    return Status::Corruption(path + ": " + parsed.status().message());
  }
  const obs::JsonValue* root = &parsed.value();
  if (const obs::JsonValue* metrics = root->Get("metrics")) root = metrics;
  return obs::MetricsSnapshot::FromJsonValue(*root);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff BASELINE.json CURRENT.json "
               "[--threshold PCT] [--skip name,name,...]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold_pct = 0.0;
  std::set<std::string> skips;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold_pct = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--skip") == 0 && i + 1 < argc) {
      std::string list = argv[++i];
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!name.empty()) skips.insert(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return Usage();
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2) return Usage();

  Result<obs::MetricsSnapshot> base = LoadSnapshot(paths[0]);
  if (!base.ok()) {
    std::fprintf(stderr, "bench_diff: %s\n", base.status().ToString().c_str());
    return 2;
  }
  Result<obs::MetricsSnapshot> cur = LoadSnapshot(paths[1]);
  if (!cur.ok()) {
    std::fprintf(stderr, "bench_diff: %s\n", cur.status().ToString().c_str());
    return 2;
  }

  // --- counters: the deterministic gate ---
  std::set<std::string> names;
  for (const auto& [name, value] : base.value().counters) names.insert(name);
  for (const auto& [name, value] : cur.value().counters) names.insert(name);

  size_t regressions = 0, improvements = 0, identical = 0, skipped = 0;
  for (const std::string& name : names) {
    if (skips.count(name) > 0) {
      ++skipped;
      continue;
    }
    const auto b_it = base.value().counters.find(name);
    const auto c_it = cur.value().counters.find(name);
    const uint64_t b = b_it == base.value().counters.end() ? 0 : b_it->second;
    const uint64_t c = c_it == cur.value().counters.end() ? 0 : c_it->second;
    if (b == c) {
      ++identical;
      continue;
    }
    const double pct =
        b == 0 ? 100.0
               : 100.0 * (static_cast<double>(c) - static_cast<double>(b)) /
                     static_cast<double>(b);
    if (c > b && std::fabs(pct) > threshold_pct) {
      ++regressions;
      std::printf("REGRESSION  %-44s %llu -> %llu (%+.2f%%)\n", name.c_str(),
                  static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(c), pct);
    } else if (c > b) {
      std::printf("TOLERATED   %-44s %llu -> %llu (%+.2f%% <= %.2f%%)\n",
                  name.c_str(), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(c), pct, threshold_pct);
    } else {
      ++improvements;
      std::printf("IMPROVEMENT %-44s %llu -> %llu (%+.2f%%)\n", name.c_str(),
                  static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(c), pct);
    }
  }

  // --- gauges + histograms: timing, warn-only ---
  size_t warnings = 0;
  for (const auto& [name, b_value] : base.value().gauges) {
    const auto c_it = cur.value().gauges.find(name);
    if (c_it == cur.value().gauges.end()) continue;
    if (b_value == c_it->second) continue;
    ++warnings;
    std::printf("WARN gauge  %-44s %.4f -> %.4f (timing, not gated)\n",
                name.c_str(), b_value, c_it->second);
  }
  for (const auto& [name, b_hist] : base.value().histograms) {
    const auto c_it = cur.value().histograms.find(name);
    if (c_it == cur.value().histograms.end()) continue;
    // Sample COUNTS through a histogram are deterministic work; the recorded
    // values (latencies) are not. Gate nothing, but surface count drift
    // louder than value drift.
    if (b_hist.count != c_it->second.count) {
      ++warnings;
      std::printf("WARN hist   %-44s count %llu -> %llu (not gated)\n",
                  name.c_str(), static_cast<unsigned long long>(b_hist.count),
                  static_cast<unsigned long long>(c_it->second.count));
    } else if (b_hist.sum != c_it->second.sum) {
      ++warnings;
      std::printf("WARN hist   %-44s sum %.4f -> %.4f (timing, not gated)\n",
                  name.c_str(), b_hist.sum, c_it->second.sum);
    }
  }

  std::printf(
      "bench_diff: %zu counters identical, %zu regressions, %zu improvements, "
      "%zu skipped, %zu timing warnings (threshold %.2f%%)\n",
      identical, regressions, improvements, skipped, warnings, threshold_pct);
  if (improvements > 0 && regressions == 0) {
    std::printf("note: counters improved — refresh the committed baseline to "
                "lock the gains in\n");
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace rst

int main(int argc, char** argv) { return rst::Main(argc, argv); }

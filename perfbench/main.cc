// Repository benchmark driver. Usage:
//
//   perfbench_driver --workload spatial_serial|text_batch|maxbrst_sites
//                    [--seed N] [--seconds S] [--trace 0|1]
//                    [--size full|tiny]
//
// Prints an environment stamp and every metric by name with its unit, then,
// as the last line of standard output, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 if any answer disagrees with the oracle, 2 on a usage
// error or a non-Release build. perfbench/run.py builds and runs it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.h"
#include "perfbench.h"
#include "rst/obs/json.h"
#include "rst/simd/simd.h"

namespace {

/// Default workload seed, recorded in every run's stamp. README.md names a
/// second seed for checking a claim on data not used while writing it.
constexpr uint64_t kDefaultSeed = 1;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "spatial_serial|text_batch|maxbrst_sites [--seed N] "
               "[--seconds S] [--trace 0|1] [--size full|tiny]\n",
               msg);
  return 2;
}

void PrintStamp(const std::string& workload, const perfbench::RunConfig& c) {
  const char* force_scalar = std::getenv("RST_FORCE_SCALAR");
  std::printf("workload %s seed %llu (default %llu) seconds %g trace %d size %s\n",
              workload.c_str(), static_cast<unsigned long long>(c.seed),
              static_cast<unsigned long long>(kDefaultSeed), c.seconds,
              c.trace ? 1 : 0,
              c.size == perfbench::Size::kTiny ? "tiny" : "full");
  std::printf("env nproc %u simd %s RST_FORCE_SCALAR=%s build %s compiler %s\n",
              std::thread::hardware_concurrency(),
              rst::simd::LevelName(rst::simd::ActiveLevel()),
              force_scalar == nullptr ? "(unset)" : force_scalar,
              PERFBENCH_BUILD_TYPE, __VERSION__);
  rst::obs::JsonWriter env;
  rst::bench::AppendEnvJson(&env);
  std::printf("env_json %s\n", env.TakeString().c_str());
  if (force_scalar != nullptr) {
    std::printf("warning: RST_FORCE_SCALAR is set; kernel timings are not "
                "comparable with vector-dispatch runs\n");
  }
}

void PrintMetric(const char* kind, const perfbench::Metric& m) {
  std::printf("%-6s %-36s %.6g %s\n", kind, m.name.c_str(), m.value,
              m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench_driver: refusing to run a non-Release build "
               "(assertions are on; numbers would not be comparable)\n");
  return 2;
#endif
  std::string workload;
  perfbench::RunConfig config;
  config.seed = kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage("bad --seconds");
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (std::strcmp(flag, "--size") == 0) {
      if (value != "full" && value != "tiny") return Usage("bad --size");
      config.size =
          value == "tiny" ? perfbench::Size::kTiny : perfbench::Size::kFull;
    } else {
      return Usage(("unknown flag " + std::string(flag)).c_str());
    }
  }

  perfbench::RunResult (*run)(const perfbench::RunConfig&) = nullptr;
  if (workload == "spatial_serial") {
    run = perfbench::RunSpatialSerial;
  } else if (workload == "text_batch") {
    run = perfbench::RunTextBatch;
  } else if (workload == "maxbrst_sites") {
    run = perfbench::RunMaxbrstSites;
  } else {
    return Usage("unknown or missing --workload");
  }

  PrintStamp(workload, config);
  std::fflush(stdout);
  const perfbench::RunResult result = run(config);

  for (const perfbench::Metric& m : result.notes) PrintMetric("note", m);
  bool finite = true;
  for (const perfbench::Metric& m : result.metrics) {
    PrintMetric("metric", m);
    finite = finite && std::isfinite(m.value);
  }
  if (!finite) std::fprintf(stderr, "perfbench_driver: non-finite metric\n");

  const bool correct = result.failed == 0 && result.attempted > 0 && finite;
  rst::obs::JsonWriter out;
  out.BeginObject();
  out.Key("correct");
  out.Bool(correct);
  out.Key("attempted");
  out.Uint(result.attempted);
  out.Key("failed");
  out.Uint(result.failed);
  out.Key("metrics");
  out.BeginObject();
  for (const perfbench::Metric& m : result.metrics) {
    out.Key(m.name);
    out.BeginObject();
    out.Key("value");
    out.Double(m.value);
    out.Key("unit");
    out.String(m.unit);
    out.EndObject();
  }
  out.EndObject();
  out.EndObject();
  std::printf("%s\n", out.TakeString().c_str());
  return correct ? 0 : 1;
}

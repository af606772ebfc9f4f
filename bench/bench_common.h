#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

// Shared scaffolding for the figure/table reproduction harnesses. Each
// binary regenerates one table or figure of the evaluated papers (see
// DESIGN.md §5 for the experiment index and EXPERIMENTS.md for results).
//
// Environment knobs (all optional):
//   RST_BENCH_OBJECTS — default object count (default 20000; the papers use
//                       1M–8M on server hardware — shapes, not absolutes).
//   RST_BENCH_REPS    — user-set repetitions averaged per point (default 2;
//                       the 2016 paper averages 100).
//   RST_BENCH_THREADS — query-evaluation threads (default 1 = serial). At
//                       >1 every RSTkNN query set runs through the
//                       rst::exec::BatchRunner; answers are identical to the
//                       serial path by the batch determinism contract.

#include <cstdio>
#include <string>
#include <vector>

#include "rst/data/dataset.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/iurtree/iurtree.h"
#include "rst/maxbrst/joint_topk.h"
#include "rst/maxbrst/maxbrst.h"
#include "rst/rstknn/rstknn.h"
#include "rst/text/similarity.h"

#include "rst/exec/thread_pool.h"

namespace rst {
namespace obs {
class JsonWriter;
}  // namespace obs
}  // namespace rst

namespace rst::bench {

size_t DefaultObjects();
size_t Reps();
size_t Threads();

/// Process-wide pool sized by Threads(), shared by every batched
/// measurement in the binary. ThreadPool(1) degenerates to inline serial
/// execution, so it is always safe to route through.
exec::ThreadPool& SharedPool();

/// Fixed-width table printing.
void PrintTitle(const std::string& title);
void PrintHeader(const std::vector<std::string>& cols);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int precision = 2);
std::string FmtInt(uint64_t v);

/// Appends the shared environment header every BENCH_*.json /
/// *.metrics.json artifact carries: {"hardware_threads", "build_type",
/// "objects", "reps", "threads"} — enough to tell two runs' numbers apart
/// without rerunning them.
void AppendEnvJson(obs::JsonWriter* writer);

/// Writes `<figure>.metrics.json` into the working directory (crash-atomic
/// temp-file + rename): a JSON object {"figure": ..., "env": <AppendEnvJson>,
/// "metrics": <global registry snapshot>} with every counter, gauge, and
/// histogram the run published (same schema as the CLI's --metrics-out
/// artifact). Call once at the end of each figure binary.
void EmitFigureMetrics(const std::string& figure);

/// --- 2016 extension experiments (MaxBRSTkNN) -----------------------------

/// Default parameters (the bold column of the 2016 paper's Table 5, with
/// object counts scaled for a single-core run).
struct ExtParams {
  size_t num_objects = DefaultObjects();
  size_t num_users = 100;        // |U|
  size_t ul = 3;                 // keywords per user
  size_t uw = 20;                // unique user keywords (= |W|)
  double area = 5.0;             // user MBR extent (world is 100x100)
  size_t num_locations = 20;     // |L|
  size_t ws = 2;
  size_t k = 10;
  double alpha = 0.5;
  Weighting weighting = Weighting::kLanguageModel;
  bool yelp = false;             // Yelp-like (long docs) instead of Flickr
  uint64_t seed = 1;
};

/// One measured point of the extension pipeline.
struct ExtPoint {
  double baseline_mrpu_ms = 0;   // mean per-user runtime, per-user baseline
  double joint_mrpu_ms = 0;      // mean per-user runtime, joint processing
  double baseline_miocpu = 0;    // mean simulated I/O per user
  double joint_miocpu = 0;
  double exact_sel_ms = 0;       // candidate-selection runtime (exact)
  double approx_sel_ms = 0;      // candidate-selection runtime (approx)
  double ratio = 1.0;            // approx coverage / exact coverage
  double exact_coverage = 0;     // |BRSTkNN| of the exact optimum
};

/// Builds the environment and measures both phases, averaged over Reps()
/// user sets. `run_selection` can be false for figures that only study the
/// top-k phase.
ExtPoint RunExtPoint(const ExtParams& params, bool run_selection = true,
                     bool run_exact = true);

/// Shared dataset + object-index cache: regenerating and re-indexing objects
/// for every sweep value is wasteful when only user-side parameters change.
struct ExtEnv {
  Dataset dataset;
  IurTree tree;
};
const ExtEnv& CachedExtEnv(const ExtParams& params);

/// --- 2011 core experiments (RSTkNN) ---------------------------------------

struct CoreParams {
  /// Half the extension default: the 2011-style baseline precompute is a
  /// full per-object top-k pass, which dominates the figure runtime.
  size_t num_objects = DefaultObjects() / 2;
  size_t k = 10;
  double alpha = 0.5;
  uint32_t num_clusters = 8;
  size_t num_queries = 4;
  TextMeasure measure = TextMeasure::kExtendedJaccard;
  Weighting weighting = Weighting::kTfIdf;
  uint64_t seed = 7;
};

struct CoreVariantPoint {
  double query_ms = 0;
  double io = 0;
};

/// One measured point per algorithm variant.
struct CorePoint {
  CoreVariantPoint baseline;   // precompute-kNN baseline (query phase)
  CoreVariantPoint iur;        // branch-and-bound on the IUR-tree
  CoreVariantPoint ciur;       // + text clustering
  CoreVariantPoint ciur_oe;    // + outlier extraction
  CoreVariantPoint ciur_te;    // + text-entropy expansion policy
  double baseline_build_ms = 0;
  size_t answer_size = 0;      // mean |RSTkNN| (sanity)
};

/// The prebuilt environment for one core configuration (shared across
/// sweeps over k / α which do not change the indexes). RSTkNN queries
/// search the frozen snapshots, frozen once here so no timed region pays for
/// a freeze; the precompute baseline and the index-size figures use the
/// IUR-/CIUR-trees they were frozen from.
struct CoreEnv {
  Dataset dataset;
  std::vector<uint32_t> clusters;
  std::vector<uint32_t> clusters_oe;
  IurTree iur;
  IurTree ciur;
  frozen::FrozenTree frozen_iur;
  frozen::FrozenTree frozen_ciur;
  frozen::FrozenTree frozen_ciur_oe;
  std::vector<ObjectId> queries;
};

/// Builds (and caches by (num_objects, num_clusters, seed)) a core
/// environment.
const CoreEnv& CachedCoreEnv(const CoreParams& params);

/// Measures all variants at one (k, alpha) point. Baseline precompute is
/// rebuilt per k (its thresholds depend on k).
CorePoint RunCorePoint(const CoreParams& params, bool run_baseline = true);

}  // namespace rst::bench

#endif  // BENCH_BENCH_COMMON_H_

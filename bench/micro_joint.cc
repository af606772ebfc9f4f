// Joint top-k layer timing on the perfbench `maxbrst_sites` shape: Flickr-
// like objects (50k unless RST_BENCH_OBJECTS is set), LM weighting, kSum,
// alpha 0.5, k = 10, groups of |U| = 100 users with UL = 3 keywords drawn
// from UW = 20. Each operation runs Process's own sequence with a timer
// around each layer — Algorithm 1 (`Traverse`, the pair-bound kernel) and
// Algorithm 2 (`IndividualTopK`, the candidate-scoring loop) — inside one
// wall timer, so the layer milliseconds sum to at most the wall time by
// construction. Each layer reports its work counter next to its time:
// super-user bound evaluations and scored objects. A plain Process() call
// per operation is timed as well and must return the same answers.
//
//   micro_joint [LABEL]
//
// writes one row labelled LABEL (default "change") into BENCH_joint.json in
// the working directory, keeping the rows of other labels already there, so
// that a binary built at another commit can add its row to the same file.

#include "bench_common.h"

#include <cstdlib>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/json.h"

namespace {

constexpr const char* kPath = "BENCH_joint.json";

/// Row fields in file order, and whether each is a count (written as an
/// exact integer) or a per-operation mean.
struct Field {
  const char* name;
  bool count;
};
constexpr Field kFields[] = {
    {"ops", true},           {"traverse_ms", false},
    {"bound_evaluations", true}, {"individual_ms", false},
    {"scored_objects", true},    {"process_ms", false},
    {"process_call_ms", false},  {"joint_ios", true},
    {"rsk_checksum", false}};
constexpr size_t kNumFields = sizeof(kFields) / sizeof(kFields[0]);

struct Row {
  std::string label;
  double values[kNumFields] = {};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rst;
  using namespace rst::bench;
  const std::string label = argc > 1 ? argv[1] : "change";

  FlickrLikeConfig gen;
  gen.num_objects =
      std::getenv("RST_BENCH_OBJECTS") != nullptr ? DefaultObjects() : 50000;
  gen.seed = 1;
  const Dataset dataset = GenFlickrLike(gen, {Weighting::kLanguageModel, 0.1});
  const TextSimilarity sim(TextMeasure::kSum, &dataset.corpus_max());
  const StScorer scorer(&sim, {0.5, dataset.max_dist()});
  const IurTree tree = IurTree::BuildFromDataset(dataset, {});
  const size_t k = 10;

  std::vector<std::vector<StUser>> groups(32);
  for (size_t g = 0; g < groups.size(); ++g) {
    UserGenConfig ucfg;
    ucfg.num_users = 100;
    ucfg.keywords_per_user = 3;
    ucfg.num_unique_keywords = 20;
    ucfg.area_extent = 5.0;
    ucfg.seed = 100 + g;
    groups[g] = GenUsers(dataset, ucfg).users;
  }

  const JointTopKProcessor proc(&tree, &dataset, &scorer);
  uint64_t ops = 0, bound_evaluations = 0, scored_objects = 0, joint_ios = 0;
  double traverse_ms = 0, individual_ms = 0, process_ms = 0;
  double process_call_ms = 0, rsk_checksum = 0;
  for (size_t rep = 0; rep < Reps(); ++rep) {
    for (const std::vector<StUser>& users : groups) {
      // Process's sequence, one timer per layer inside the wall timer.
      Stopwatch wall;
      JointTopKResult layered;
      layered.per_user.resize(users.size());
      layered.rsk.assign(users.size(), -1.0);
      const SuperUser su = SuperUser::FromUsers(users);
      Stopwatch layer;
      layered.traversal = proc.Traverse(su, k, &layered.io);
      traverse_ms += layer.ElapsedMillis();
      layer.Restart();
      proc.IndividualTopK(users, layered.traversal, k, &layered);
      individual_ms += layer.ElapsedMillis();
      process_ms += wall.ElapsedMillis();

      wall.Restart();
      const JointTopKResult called = proc.Process(users, k);
      process_call_ms += wall.ElapsedMillis();
      if (called.per_user != layered.per_user || called.rsk != layered.rsk) {
        std::fprintf(stderr, "Process() and the layered run disagree\n");
        return 1;
      }
      ++ops;
      bound_evaluations += layered.traversal.bound_evaluations;
      scored_objects += layered.scored_objects;
      joint_ios += layered.io.TotalIos();
      for (double r : layered.rsk) rsk_checksum += r;
    }
  }
  const double n = static_cast<double>(ops);
  const Row row{label,
                {n, traverse_ms / n, static_cast<double>(bound_evaluations),
                 individual_ms / n, static_cast<double>(scored_objects),
                 process_ms / n, process_call_ms / n,
                 static_cast<double>(joint_ios), rsk_checksum}};

  PrintTitle("micro_joint: joint top-k layers  (|O|=" +
             std::to_string(dataset.size()) + ", |U|=100, UW=20, k=10, " +
             std::to_string(ops) + " ops; ms per op, counts in total)");
  PrintHeader({"label", "traverse_ms", "bound_evals", "individual_ms",
               "scored", "process_ms", "call_ms"});
  PrintRow({label, Fmt(traverse_ms / n), FmtInt(bound_evaluations),
            Fmt(individual_ms / n), FmtInt(scored_objects),
            Fmt(process_ms / n), Fmt(process_call_ms / n)});

  // Keep the other labels' rows (and a hand-written caveat) from an
  // existing file.
  std::vector<Row> rows;
  std::string caveat;
  if (Result<std::string> old = ReadFileToString(kPath); old.ok()) {
    const Result<obs::JsonValue> doc = obs::JsonValue::Parse(old.value());
    const obs::JsonValue* old_rows = doc.ok() ? doc.value().Get("rows") : nullptr;
    if (old_rows != nullptr && old_rows->is_array()) {
      for (const obs::JsonValue& r : old_rows->AsArray()) {
        const obs::JsonValue* l = r.Get("label");
        if (l == nullptr || l->AsString() == label) continue;
        Row kept{l->AsString()};
        for (size_t f = 0; f < kNumFields; ++f) {
          const obs::JsonValue* v = r.Get(kFields[f].name);
          kept.values[f] = v != nullptr ? v->AsDouble() : 0.0;
        }
        rows.push_back(kept);
      }
    }
    const obs::JsonValue* c = doc.ok() ? doc.value().Get("caveat") : nullptr;
    if (c != nullptr) caveat = c->AsString();
  }
  rows.push_back(row);

  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("figure");
  writer.String("micro_joint");
  writer.Key("env");
  AppendEnvJson(&writer);
  writer.Key("dataset_objects");
  writer.Uint(dataset.size());
  writer.Key("users_per_group");
  writer.Uint(100);
  writer.Key("unique_keywords");
  writer.Uint(20);
  writer.Key("k");
  writer.Uint(k);
  writer.Key("rows");
  writer.BeginArray();
  for (const Row& r : rows) {
    writer.BeginObject();
    writer.Key("label");
    writer.String(r.label);
    for (size_t f = 0; f < kNumFields; ++f) {
      writer.Key(kFields[f].name);
      if (kFields[f].count) {
        writer.Uint(static_cast<uint64_t>(r.values[f]));
      } else {
        writer.Double(r.values[f]);
      }
    }
    writer.EndObject();
  }
  writer.EndArray();
  if (!caveat.empty()) {
    writer.Key("caveat");
    writer.String(caveat);
  }
  writer.EndObject();
  if (WriteStringToFileAtomic(kPath, writer.TakeString()).ok()) {
    std::printf("\nwrote %s\n", kPath);
  }
  return 0;
}

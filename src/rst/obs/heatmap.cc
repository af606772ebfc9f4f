#include "rst/obs/heatmap.h"

#include <algorithm>
#include <sstream>

#include "rst/obs/json.h"

namespace rst::obs {

void HeatmapRecorder::Record(uint64_t node_id, uint32_t level,
                             ExplainVerdict verdict, ExplainBound bound,
                             uint64_t decided_objects) {
  totals_.Tally(verdict, bound, decided_objects);
  DecisionCounters& node = nodes_[node_id];
  node.level = level;
  node.Tally(verdict, bound, decided_objects);
}

void HeatmapRecorder::Merge(const HeatmapRecorder& other) {
  queries_ += other.queries_;
  totals_ += other.totals_;
  for (const auto& [id, counters] : other.nodes_) {
    DecisionCounters& node = nodes_[id];
    node.level = counters.level;
    node += counters;
  }
}

void HeatmapRecorder::Reset() {
  queries_ = 0;
  totals_ = DecisionCounters{};
  nodes_.clear();
}

std::vector<DecisionCounters> HeatmapRecorder::LevelSummaries() const {
  std::vector<DecisionCounters> levels;
  for (const auto& [id, counters] : nodes_) {
    LevelSlot(&levels, counters.level) += counters;
  }
  levels.erase(std::remove_if(levels.begin(), levels.end(),
                              [](const DecisionCounters& c) {
                                return c.visits == 0;
                              }),
               levels.end());
  return levels;
}

Status HeatmapRecorder::CheckReconciles(uint64_t expansions,
                                        uint64_t pruned_entries,
                                        uint64_t reported_entries) const {
  const Status totals = totals_.CheckReconciles("heatmap", expansions,
                                                pruned_entries,
                                                reported_entries);
  if (!totals.ok()) return totals;
  // The per-node map must agree with the running totals (catches a bad
  // Merge): sum the map and compare the decision counters.
  DecisionCounters sum;
  for (const auto& [id, counters] : nodes_) sum += counters;
  if (sum.pruned != totals_.pruned || sum.expanded != totals_.expanded ||
      sum.reported_hit != totals_.reported_hit ||
      sum.reported_miss != totals_.reported_miss) {
    std::ostringstream os;
    os << "heatmap does not reconcile with RstknnStats: per-node sum vs "
          "totals: heatmap="
       << sum.decisions() << " stats=" << decisions();
    return Status::InvalidArgument(os.str());
  }
  return Status::Ok();
}

namespace {

void AppendCounterFields(JsonWriter* w, const DecisionCounters& c) {
  w->Key("visits");
  w->Uint(c.visits);
  w->Key("pruned");
  w->Uint(c.pruned);
  w->Key("expanded");
  w->Uint(c.expanded);
  w->Key("reported_hit");
  w->Uint(c.reported_hit);
  w->Key("reported_miss");
  w->Uint(c.reported_miss);
  w->Key("objects_pruned");
  w->Uint(c.objects_pruned);
  w->Key("objects_reported");
  w->Uint(c.objects_reported);
  w->Key("lower_bound_fires");
  w->Uint(c.lower_bound_fires);
  w->Key("upper_bound_fires");
  w->Uint(c.upper_bound_fires);
  w->Key("exact_fires");
  w->Uint(c.exact_fires);
}

}  // namespace

void HeatmapRecorder::AppendJson(JsonWriter* writer, size_t max_nodes) const {
  writer->BeginObject();
  writer->Key("queries");
  writer->Uint(queries_);
  writer->Key("decisions");
  writer->Uint(decisions());
  writer->Key("totals");
  writer->BeginObject();
  AppendCounterFields(writer, totals_);
  writer->EndObject();
  writer->Key("levels");
  writer->BeginArray();
  for (const DecisionCounters& level : LevelSummaries()) {
    writer->BeginObject();
    writer->Key("level");
    writer->Uint(level.level);
    AppendCounterFields(writer, level);
    writer->EndObject();
  }
  writer->EndArray();

  std::vector<std::pair<uint64_t, const DecisionCounters*>> ordered;
  ordered.reserve(nodes_.size());
  for (const auto& [id, counters] : nodes_) ordered.emplace_back(id, &counters);
  if (max_nodes > 0 && ordered.size() > max_nodes) {
    // Hottest first for truncation, then back to id order for stable output.
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      if (a.second->visits != b.second->visits) {
        return a.second->visits > b.second->visits;
      }
      return a.first < b.first;
    });
    ordered.resize(max_nodes);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  writer->Key("nodes");
  writer->BeginArray();
  for (const auto& [id, counters] : ordered) {
    writer->BeginObject();
    writer->Key("id");
    writer->Uint(id);
    writer->Key("level");
    writer->Uint(counters->level);
    AppendCounterFields(writer, *counters);
    writer->EndObject();
  }
  writer->EndArray();
  if (max_nodes > 0 && nodes_.size() > max_nodes) {
    writer->Key("nodes_dropped");
    writer->Uint(nodes_.size() - max_nodes);
  }
  writer->EndObject();
}

std::string HeatmapRecorder::ToJson(size_t max_nodes) const {
  JsonWriter writer;
  AppendJson(&writer, max_nodes);
  return writer.TakeString();
}

}  // namespace rst::obs

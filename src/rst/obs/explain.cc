#include "rst/obs/explain.h"

#include <algorithm>
#include <sstream>

#include "rst/obs/json.h"

namespace rst::obs {

std::string_view ExplainVerdictName(ExplainVerdict verdict) {
  switch (verdict) {
    case ExplainVerdict::kPrune:
      return "prune";
    case ExplainVerdict::kExpand:
      return "expand";
    case ExplainVerdict::kReportHit:
      return "report_hit";
    case ExplainVerdict::kReportMiss:
      return "report_miss";
  }
  return "unknown";
}

std::string_view ExplainBoundName(ExplainBound bound) {
  switch (bound) {
    case ExplainBound::kNone:
      return "none";
    case ExplainBound::kLowerBound:
      return "lower";
    case ExplainBound::kUpperBound:
      return "upper";
    case ExplainBound::kExact:
      return "exact";
  }
  return "unknown";
}

void DecisionCounters::Tally(ExplainVerdict verdict, ExplainBound bound,
                             uint64_t decided_objects) {
  ++visits;
  switch (verdict) {
    case ExplainVerdict::kPrune:
      ++pruned;
      objects_pruned += decided_objects;
      break;
    case ExplainVerdict::kExpand:
      ++expanded;
      break;
    case ExplainVerdict::kReportHit:
      ++reported_hit;
      objects_reported += decided_objects;
      break;
    case ExplainVerdict::kReportMiss:
      ++reported_miss;
      objects_pruned += decided_objects;
      break;
  }
  switch (bound) {
    case ExplainBound::kNone:
      break;
    case ExplainBound::kLowerBound:
      ++lower_bound_fires;
      break;
    case ExplainBound::kUpperBound:
      ++upper_bound_fires;
      break;
    case ExplainBound::kExact:
      ++exact_fires;
      break;
  }
}

DecisionCounters& DecisionCounters::operator+=(const DecisionCounters& other) {
  visits += other.visits;
  pruned += other.pruned;
  expanded += other.expanded;
  reported_hit += other.reported_hit;
  reported_miss += other.reported_miss;
  objects_pruned += other.objects_pruned;
  objects_reported += other.objects_reported;
  lower_bound_fires += other.lower_bound_fires;
  upper_bound_fires += other.upper_bound_fires;
  exact_fires += other.exact_fires;
  return *this;
}

Status DecisionCounters::CheckReconciles(std::string_view source,
                                         uint64_t expansions,
                                         uint64_t pruned_entries,
                                         uint64_t reported_entries) const {
  auto mismatch = [source](std::string_view what, uint64_t got,
                           uint64_t want) {
    std::ostringstream os;
    os << source << " does not reconcile with RstknnStats: " << what << ": "
       << source << "=" << got << " stats=" << want;
    return Status::InvalidArgument(os.str());
  };
  if (pruned + reported_miss != pruned_entries) {
    return mismatch("prune + report_miss vs pruned_entries",
                    pruned + reported_miss, pruned_entries);
  }
  if (reported_hit != reported_entries) {
    return mismatch("report_hit vs reported_entries", reported_hit,
                    reported_entries);
  }
  if (expanded != expansions) {
    return mismatch("expand vs expansions", expanded, expansions);
  }
  return Status::Ok();
}

DecisionCounters& LevelSlot(std::vector<DecisionCounters>* levels,
                            uint32_t level) {
  for (size_t i = levels->size(); i <= level; ++i) {
    levels->emplace_back().level = static_cast<uint32_t>(i);
  }
  return (*levels)[level];
}

void ExplainRecorder::Record(const ExplainDecision& decision) {
  totals_.Tally(decision.verdict, decision.bound, decision.subtree_count);
  LevelSlot(&levels_, decision.level)
      .Tally(decision.verdict, decision.bound, decision.subtree_count);
  if (log_.size() < max_decisions_) {
    log_.push_back(decision);
  } else if (max_decisions_ > 0) {
    ++log_dropped_;
  }
}

void ExplainRecorder::Merge(const ExplainRecorder& other) {
  if (algorithm_.empty()) algorithm_ = other.algorithm_;
  totals_ += other.totals_;
  for (const DecisionCounters& level : other.levels_) {
    LevelSlot(&levels_, level.level) += level;
  }
  if (max_decisions_ == 0) return;
  const size_t taken =
      std::min(max_decisions_ - log_.size(), other.log_.size());
  log_.insert(log_.end(), other.log_.begin(), other.log_.begin() + taken);
  log_dropped_ += other.decisions() - taken;
}

void ExplainRecorder::Reset() {
  algorithm_.clear();
  totals_ = DecisionCounters{};
  levels_.clear();
  log_.clear();
  log_dropped_ = 0;
}

std::string ExplainRecorder::ToString() const {
  std::ostringstream os;
  os << "explain";
  if (!algorithm_.empty()) os << " (" << algorithm_ << ")";
  os << ": " << decisions() << " decisions — prune=" << totals_.pruned
     << " expand=" << totals_.expanded << " report_hit=" << totals_.reported_hit
     << " report_miss=" << totals_.reported_miss << "\n";
  os << "  objects: pruned=" << totals_.objects_pruned
     << " reported=" << totals_.objects_reported << "\n";
  for (const DecisionCounters& level : levels_) {
    if (level.decisions() == 0) continue;
    os << "  level " << level.level << ": prune=" << level.pruned
       << " expand=" << level.expanded << " report_hit=" << level.reported_hit
       << " report_miss=" << level.reported_miss
       << " obj_pruned=" << level.objects_pruned
       << " obj_reported=" << level.objects_reported << "\n";
  }
  if (!log_.empty()) {
    os << "  log (" << log_.size() << " decisions";
    if (log_dropped_ > 0) os << ", " << log_dropped_ << " dropped";
    os << "):\n";
    for (const ExplainDecision& d : log_) {
      os << "    node " << d.node_id << " L" << d.level << " "
         << ExplainVerdictName(d.verdict) << "/" << ExplainBoundName(d.bound)
         << " q=[" << d.q_min << "," << d.q_max << "] count=" << d.subtree_count
         << "\n";
    }
  } else if (log_dropped_ > 0) {
    os << "  log: " << log_dropped_ << " decisions dropped (cap "
       << max_decisions_ << ")\n";
  }
  return os.str();
}

namespace {

void AppendSummaryFields(JsonWriter* w, const DecisionCounters& s) {
  w->Key("prune");
  w->Uint(s.pruned);
  w->Key("expand");
  w->Uint(s.expanded);
  w->Key("report_hit");
  w->Uint(s.reported_hit);
  w->Key("report_miss");
  w->Uint(s.reported_miss);
  w->Key("objects_pruned");
  w->Uint(s.objects_pruned);
  w->Key("objects_reported");
  w->Uint(s.objects_reported);
}

}  // namespace

void ExplainRecorder::AppendJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("algorithm");
  writer->String(algorithm_);
  writer->Key("decisions");
  writer->Uint(decisions());
  writer->Key("totals");
  writer->BeginObject();
  AppendSummaryFields(writer, totals_);
  writer->EndObject();
  writer->Key("levels");
  writer->BeginArray();
  for (const DecisionCounters& level : levels_) {
    if (level.decisions() == 0) continue;
    writer->BeginObject();
    writer->Key("level");
    writer->Uint(level.level);
    AppendSummaryFields(writer, level);
    writer->EndObject();
  }
  writer->EndArray();
  if (max_decisions_ > 0) {
    writer->Key("log");
    writer->BeginArray();
    for (const ExplainDecision& d : log_) {
      writer->BeginObject();
      writer->Key("node");
      writer->Uint(d.node_id);
      writer->Key("level");
      writer->Uint(d.level);
      writer->Key("verdict");
      writer->String(ExplainVerdictName(d.verdict));
      writer->Key("bound");
      writer->String(ExplainBoundName(d.bound));
      writer->Key("q_min");
      writer->Double(d.q_min);
      writer->Key("q_max");
      writer->Double(d.q_max);
      writer->Key("count");
      writer->Uint(d.subtree_count);
      writer->EndObject();
    }
    writer->EndArray();
    writer->Key("log_dropped");
    writer->Uint(log_dropped_);
  }
  writer->EndObject();
}

std::string ExplainRecorder::ToJson() const {
  JsonWriter writer;
  AppendJson(&writer);
  return writer.TakeString();
}

}  // namespace rst::obs

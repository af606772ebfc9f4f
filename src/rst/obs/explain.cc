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

namespace {

void Tally(ExplainLevelSummary* summary, const ExplainDecision& decision) {
  switch (decision.verdict) {
    case ExplainVerdict::kPrune:
      ++summary->pruned;
      summary->objects_pruned += decision.subtree_count;
      break;
    case ExplainVerdict::kExpand:
      ++summary->expanded;
      break;
    case ExplainVerdict::kReportHit:
      ++summary->reported_hit;
      summary->objects_reported += decision.subtree_count;
      break;
    case ExplainVerdict::kReportMiss:
      ++summary->reported_miss;
      summary->objects_pruned += decision.subtree_count;
      break;
  }
}

void AddSummary(ExplainLevelSummary* into, const ExplainLevelSummary& from) {
  into->pruned += from.pruned;
  into->expanded += from.expanded;
  into->reported_hit += from.reported_hit;
  into->reported_miss += from.reported_miss;
  into->objects_pruned += from.objects_pruned;
  into->objects_reported += from.objects_reported;
}

}  // namespace

void ExplainRecorder::Record(const ExplainDecision& decision) {
  Tally(&totals_, decision);
  if (decision.level >= levels_.size()) {
    size_t old_size = levels_.size();
    levels_.resize(decision.level + 1);
    for (size_t i = old_size; i < levels_.size(); ++i) {
      levels_[i].level = static_cast<uint32_t>(i);
    }
  }
  Tally(&levels_[decision.level], decision);
  if (log_.size() < max_decisions_) {
    log_.push_back(decision);
  } else if (max_decisions_ > 0) {
    ++log_dropped_;
  }
}

void ExplainRecorder::Merge(const ExplainRecorder& other) {
  if (algorithm_.empty()) algorithm_ = other.algorithm_;
  AddSummary(&totals_, other.totals_);
  const size_t old_size = levels_.size();
  if (other.levels_.size() > old_size) {
    levels_.resize(other.levels_.size());
    for (size_t i = old_size; i < levels_.size(); ++i) {
      levels_[i].level = static_cast<uint32_t>(i);
    }
  }
  for (size_t i = 0; i < other.levels_.size(); ++i) {
    AddSummary(&levels_[i], other.levels_[i]);
  }
  if (max_decisions_ == 0) return;
  const size_t taken =
      std::min(max_decisions_ - log_.size(), other.log_.size());
  log_.insert(log_.end(), other.log_.begin(), other.log_.begin() + taken);
  log_dropped_ += other.decisions() - taken;
}

void ExplainRecorder::Reset() {
  algorithm_.clear();
  totals_ = ExplainLevelSummary{};
  levels_.clear();
  log_.clear();
  log_dropped_ = 0;
}

Status ExplainRecorder::CheckReconciles(uint64_t expansions,
                                        uint64_t pruned_entries,
                                        uint64_t reported_entries) const {
  auto mismatch = [](std::string_view what, uint64_t got, uint64_t want) {
    std::ostringstream os;
    os << "explain does not reconcile with RstknnStats: " << what << ": explain="
       << got << " stats=" << want;
    return Status::InvalidArgument(os.str());
  };
  if (totals_.pruned + totals_.reported_miss != pruned_entries) {
    return mismatch("prune + report_miss vs pruned_entries",
                    totals_.pruned + totals_.reported_miss, pruned_entries);
  }
  if (totals_.reported_hit != reported_entries) {
    return mismatch("report_hit vs reported_entries", totals_.reported_hit,
                    reported_entries);
  }
  if (totals_.expanded != expansions) {
    return mismatch("expand vs expansions", totals_.expanded, expansions);
  }
  return Status::Ok();
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
  for (const ExplainLevelSummary& level : levels_) {
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

void AppendSummaryFields(JsonWriter* w, const ExplainLevelSummary& s) {
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
  for (const ExplainLevelSummary& level : levels_) {
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

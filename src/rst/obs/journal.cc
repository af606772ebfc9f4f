#include "rst/obs/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>

#include "rst/common/file_util.h"
#include "rst/obs/json.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/metrics.h"
#include "rst/simd/simd.h"

namespace rst::obs {

#define JOURNAL_RETURN_IF_ERROR(expr)       \
  do {                                      \
    Status status_macro_tmp = (expr);       \
    if (!status_macro_tmp.ok()) return status_macro_tmp; \
  } while (0)

uint64_t AnswerDigest(const std::vector<uint32_t>& ids) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (uint32_t id : ids) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (id >> shift) & 0xFFu;
      h *= 1099511628211ull;  // FNV-1a 64 prime
    }
  }
  return h;
}

std::string DigestHex(uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[digest & 0xFu];
    digest >>= 4;
  }
  return out;
}

namespace {

bool ForceScalarActive() {
  // getenv is never raced with setenv in this codebase (environment is
  // read-only after startup).
  const char* v = std::getenv("RST_FORCE_SCALAR");  // NOLINT(concurrency-mt-unsafe)
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

Result<uint64_t> ParseDigestHex(const std::string& hex) {
  if (hex.size() != 16) {
    return Status::InvalidArgument("journal: bad digest length");
  }
  uint64_t value = 0;
  for (char c : hex) {
    uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return Status::InvalidArgument("journal: bad digest character");
    }
    value = (value << 4) | nibble;
  }
  return value;
}

}  // namespace

void AppendProvenanceJson(JsonWriter* writer) {
  writer->Key("simd_level");
  writer->String(simd::LevelName(simd::ActiveLevel()));
  writer->Key("force_scalar");
  writer->Bool(ForceScalarActive());
  writer->Key("build_type");
#ifdef NDEBUG
  writer->String("release");
#else
  writer->String("debug");
#endif
}

namespace {

struct StatsField {
  const char* key;
  uint64_t JournalStats::*member;
};

constexpr StatsField kStatsFields[] = {
    {"io_node_reads", &JournalStats::io_node_reads},
    {"io_payload_blocks", &JournalStats::io_payload_blocks},
    {"io_payload_bytes", &JournalStats::io_payload_bytes},
    {"entries_created", &JournalStats::entries_created},
    {"expansions", &JournalStats::expansions},
    {"pruned_entries", &JournalStats::pruned_entries},
    {"reported_entries", &JournalStats::reported_entries},
    {"bound_computations", &JournalStats::bound_computations},
    {"probes", &JournalStats::probes},
    {"pq_pops", &JournalStats::pq_pops},
};

}  // namespace

bool JournalStats::operator==(const JournalStats& other) const {
  for (const StatsField& f : kStatsFields) {
    if (this->*f.member != other.*f.member) return false;
  }
  return true;
}

std::string JournalStats::Diff(const JournalStats& other) const {
  std::string out;
  for (const StatsField& f : kStatsFields) {
    if (this->*f.member == other.*f.member) continue;
    if (!out.empty()) out += ", ";
    out += std::string(f.key) + " " + std::to_string(this->*f.member) + "->" +
           std::to_string(other.*f.member);
  }
  return out;
}

void JournalStats::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  for (const StatsField& f : kStatsFields) {
    w->Key(f.key);
    w->Uint(this->*f.member);
  }
  w->EndObject();
}

namespace {

void AppendHeaderJson(JsonWriter* w, const JournalHeader& h) {
  w->BeginObject();
  w->Key("type");
  w->String("header");
  w->Key("version");
  w->Uint(3);
  w->Key("label");
  w->String(h.label);
  w->Key("data");
  w->String(h.data);
  w->Key("algo");
  w->String(h.algo);
  w->Key("tree");
  w->String(h.tree);
  w->Key("measure");
  w->String(h.measure);
  w->Key("weighting");
  w->String(h.weighting);
  w->Key("alpha");
  w->Double(h.alpha);
  w->Key("threads");
  w->Uint(h.threads);
  w->Key("sample_every");
  w->Uint(h.sample_every);
  if (h.slow_ms >= 0.0) {
    w->Key("slow_ms");
    w->Double(h.slow_ms);
  }
  if (!h.dataset_digest.empty()) {
    w->Key("dataset_digest");
    w->String(h.dataset_digest);
  }
  w->Key("provenance");
  w->BeginObject();
  AppendProvenanceJson(w);
  w->EndObject();
  w->EndObject();
}

void AppendRecordJson(JsonWriter* w, const JournalQueryRecord& r) {
  w->BeginObject();
  w->Key("type");
  w->String("query");
  w->Key("index");
  w->Uint(r.index);
  w->Key("x");
  w->Double(r.x);
  w->Key("y");
  w->Double(r.y);
  w->Key("k");
  w->Uint(r.k);
  w->Key("self");
  w->Uint(r.self);
  w->Key("terms");
  w->BeginArray();
  for (const auto& [term, weight] : r.terms) {
    w->BeginArray();
    w->Uint(term);
    w->Double(static_cast<double>(weight));
    w->EndArray();
  }
  w->EndArray();
  w->Key("wall_ms");
  w->Double(r.wall_ms);
  if (!r.phases_json.empty()) {
    w->Key("phases");
    w->RawValue(r.phases_json);
  }
  if (!r.trace_json.empty()) {
    w->Key("trace");
    w->RawValue(r.trace_json);
  }
  if (!r.explain_json.empty()) {
    w->Key("explain");
    w->RawValue(r.explain_json);
  }
  w->Key("answer_count");
  w->Uint(r.answer_count);
  w->Key("answer_digest");
  w->String(DigestHex(r.answer_digest));
  w->Key("stats");
  r.stats.AppendJson(w);
  w->EndObject();
}

Status ReadString(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument(std::string("journal: missing string \"") +
                                   key + "\"");
  }
  *out = v->AsString();
  return Status::Ok();
}

Status ReadUint(const JsonValue& obj, const char* key, uint64_t* out) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument(std::string("journal: missing number \"") +
                                   key + "\"");
  }
  *out = v->AsUint();
  return Status::Ok();
}

Status ReadDouble(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument(std::string("journal: missing number \"") +
                                   key + "\"");
  }
  *out = v->AsDouble();
  return Status::Ok();
}

/// Reads string `key` and refuses any value outside `allowed`, so a replay
/// never silently falls back to a default scorer or algorithm.
Status ReadToken(const JsonValue& obj, const char* key,
                 std::initializer_list<std::string_view> allowed,
                 std::string* out) {
  JOURNAL_RETURN_IF_ERROR(ReadString(obj, key, out));
  if (std::find(allowed.begin(), allowed.end(), *out) != allowed.end()) {
    return Status::Ok();
  }
  std::string message = std::string("journal: ") + key + " \"" + *out +
                        "\" is not one of ";
  for (const std::string_view token : allowed) {
    if (token != *allowed.begin()) message += "|";
    message += token;
  }
  return Status::InvalidArgument(message);
}

/// Keys not read here are ignored, e.g. the `view` ("pointer" | "frozen")
/// that older captures carry: every replay searches a frozen tree, and the
/// answers and stats never depended on the view.
Status ParseHeader(const JsonValue& obj, JournalHeader* header) {
  JOURNAL_RETURN_IF_ERROR(ReadString(obj, "label", &header->label));
  JOURNAL_RETURN_IF_ERROR(ReadString(obj, "data", &header->data));
  JOURNAL_RETURN_IF_ERROR(
      ReadToken(obj, "algo", {"probe", "contribution_list"}, &header->algo));
  JOURNAL_RETURN_IF_ERROR(
      ReadToken(obj, "tree", {"iur", "ciur"}, &header->tree));
  JOURNAL_RETURN_IF_ERROR(
      ReadToken(obj, "measure", {"ej", "cos", "sum"}, &header->measure));
  JOURNAL_RETURN_IF_ERROR(ReadToken(obj, "weighting",
                                    {"tfidf", "lm", "binary"},
                                    &header->weighting));
  JOURNAL_RETURN_IF_ERROR(ReadDouble(obj, "alpha", &header->alpha));
  // The scorer's bounds hold only for a spatial weight in [0, 1].
  if (!(header->alpha >= 0.0 && header->alpha <= 1.0)) {
    return Status::InvalidArgument("journal: alpha " +
                                   std::to_string(header->alpha) +
                                   " is outside [0, 1]");
  }
  JOURNAL_RETURN_IF_ERROR(ReadUint(obj, "threads", &header->threads));
  JOURNAL_RETURN_IF_ERROR(ReadUint(obj, "sample_every", &header->sample_every));
  // Optional: only journals captured over a sharded forest carry it.
  const JsonValue* shards = obj.Get("shards");
  header->shards =
      shards != nullptr && shards->is_number() ? shards->AsUint() : 0;
  // Optional: set only with a latency threshold.
  const JsonValue* slow_ms = obj.Get("slow_ms");
  header->slow_ms =
      slow_ms != nullptr && slow_ms->is_number() ? slow_ms->AsDouble() : -1.0;
  // Optional: journals before version 3 do not name their dataset.
  const JsonValue* digest = obj.Get("dataset_digest");
  header->dataset_digest =
      digest != nullptr && digest->is_string() ? digest->AsString() : "";
  return Status::Ok();
}

Status ParseRecord(const JsonValue& obj, JournalQueryRecord* record) {
  JOURNAL_RETURN_IF_ERROR(ReadUint(obj, "index", &record->index));
  JOURNAL_RETURN_IF_ERROR(ReadDouble(obj, "x", &record->x));
  JOURNAL_RETURN_IF_ERROR(ReadDouble(obj, "y", &record->y));
  JOURNAL_RETURN_IF_ERROR(ReadUint(obj, "k", &record->k));
  JOURNAL_RETURN_IF_ERROR(ReadUint(obj, "self", &record->self));
  JOURNAL_RETURN_IF_ERROR(ReadUint(obj, "answer_count", &record->answer_count));
  const JsonValue* terms = obj.Get("terms");
  if (terms == nullptr || !terms->is_array()) {
    return Status::InvalidArgument("journal: missing terms array");
  }
  record->terms.clear();
  record->terms.reserve(terms->AsArray().size());
  for (const JsonValue& pair : terms->AsArray()) {
    if (!pair.is_array() || pair.AsArray().size() != 2 ||
        !pair.AsArray()[0].is_number() || !pair.AsArray()[1].is_number()) {
      return Status::InvalidArgument("journal: malformed term pair");
    }
    record->terms.emplace_back(
        static_cast<uint32_t>(pair.AsArray()[0].AsUint()),
        static_cast<float>(pair.AsArray()[1].AsDouble()));
  }
  const JsonValue* wall = obj.Get("wall_ms");
  record->wall_ms = wall != nullptr && wall->is_number() ? wall->AsDouble() : 0;
  std::string digest_hex;
  JOURNAL_RETURN_IF_ERROR(ReadString(obj, "answer_digest", &digest_hex));
  Result<uint64_t> digest = ParseDigestHex(digest_hex);
  JOURNAL_RETURN_IF_ERROR(digest.status());
  record->answer_digest = digest.value();
  const JsonValue* stats = obj.Get("stats");
  if (stats == nullptr || !stats->is_object()) {
    return Status::InvalidArgument("journal: missing stats object");
  }
  for (const StatsField& f : kStatsFields) {
    JOURNAL_RETURN_IF_ERROR(ReadUint(*stats, f.key, &(record->stats.*f.member)));
  }
  return Status::Ok();
}

}  // namespace

WorkloadRecorder::~WorkloadRecorder() {
  // No thread may legally race a destructor, but the lock keeps the analysis
  // contract uniform and costs nothing on this cold path.
  MutexLock lock(&mu_);
  if (file_ != nullptr) {
    // Destructor flush for abandon paths; errors here have nowhere to go —
    // callers that care invoke Close() and check.
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WorkloadRecorder::Open(const std::string& path,
                              const JournalHeader& header) {
  MutexLock lock(&mu_);
  if (file_ != nullptr) {
    return Status::InvalidArgument("journal: already open");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("journal: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  header_ = header;
  JsonWriter writer;
  AppendHeaderJson(&writer, header_);
  std::string line = writer.TakeString();
  line.push_back('\n');
  if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
      std::fflush(file) != 0) {
    std::fclose(file);
    return Status::Internal("journal: header write failed for " + path);
  }
  file_ = file;
  recorded_ = 0;
  error_ = Status::Ok();
  return Status::Ok();
}

bool WorkloadRecorder::is_open() const {
  // Was an unlocked `file_ != nullptr` read: a monitor thread polling
  // is_open() while a worker raced Open/Append/Close was a data race on
  // `file_` (caught while adding thread-safety annotations; see
  // WorkloadRecorderTest.ConcurrentAppendAndIsOpen).
  MutexLock lock(&mu_);
  return file_ != nullptr;
}

bool WorkloadRecorder::ShouldRecord(uint64_t index, double wall_ms) const {
  MutexLock lock(&mu_);
  if (file_ == nullptr) return false;
  return (header_.sample_every != 0 && index % header_.sample_every == 0) ||
         (header_.slow_ms >= 0.0 && wall_ms >= header_.slow_ms);
}

double WorkloadRecorder::slow_ms() const {
  MutexLock lock(&mu_);
  return header_.slow_ms;
}

void WorkloadRecorder::Append(const JournalQueryRecord& record) {
  static const Counter records =
      MetricRegistry::Global().GetCounter(names::kJournalRecords);
  static const Counter errors =
      MetricRegistry::Global().GetCounter(names::kJournalErrors);
  // Serialize outside the lock: the mutex only orders the fwrite calls.
  JsonWriter writer;
  AppendRecordJson(&writer, record);
  std::string line = writer.TakeString();
  line.push_back('\n');
  MutexLock lock(&mu_);
  if (file_ == nullptr) return;
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    errors.Increment();
    if (error_.ok()) {
      error_ = Status::Internal("journal: record append failed");
    }
    return;
  }
  ++recorded_;
  records.Increment();
}

uint64_t WorkloadRecorder::recorded() const {
  MutexLock lock(&mu_);
  return recorded_;
}

Status WorkloadRecorder::Close() {
  MutexLock lock(&mu_);
  if (file_ == nullptr) return error_;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0 && error_.ok()) {
    error_ = Status::Internal("journal: close failed");
  }
  return error_;
}

Result<JournalFile> ReadJournal(const std::string& path) {
  Result<std::string> contents = ReadFileToString(path);
  JOURNAL_RETURN_IF_ERROR(contents.status());
  JournalFile journal;
  const std::string& text = contents.value();
  size_t pos = 0;
  size_t line_number = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const bool complete = eol != std::string::npos;
    const std::string_view line(text.data() + pos,
                                (complete ? eol : text.size()) - pos);
    pos = complete ? eol + 1 : text.size();
    ++line_number;
    if (line.empty()) continue;
    if (!complete) {
      // Torn final line from a crash mid-append: tolerated by design.
      ++journal.truncated_lines;
      break;
    }
    Result<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      if (pos >= text.size()) {
        // Final line, complete but unparseable — also a torn write (the
        // newline landed, the payload did not finish).
        ++journal.truncated_lines;
        break;
      }
      return Status::InvalidArgument("journal: line " +
                                     std::to_string(line_number) + ": " +
                                     std::string(parsed.status().message()));
    }
    const JsonValue& obj = parsed.value();
    std::string type;
    JOURNAL_RETURN_IF_ERROR(ReadString(obj, "type", &type));
    if (type == "header") {
      if (saw_header) {
        return Status::InvalidArgument("journal: duplicate header");
      }
      saw_header = true;
      JOURNAL_RETURN_IF_ERROR(ParseHeader(obj, &journal.header));
    } else if (type == "query") {
      if (!saw_header) {
        return Status::InvalidArgument("journal: record before header");
      }
      JournalQueryRecord record;
      JOURNAL_RETURN_IF_ERROR(ParseRecord(obj, &record));
      journal.records.push_back(std::move(record));
    } else {
      return Status::InvalidArgument("journal: unknown line type \"" + type +
                                     "\"");
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("journal: missing header line");
  }
  std::stable_sort(journal.records.begin(), journal.records.end(),
                   [](const JournalQueryRecord& a, const JournalQueryRecord& b) {
                     return a.index < b.index;
                   });
  return journal;
}

#undef JOURNAL_RETURN_IF_ERROR

}  // namespace rst::obs

#ifndef RST_OBS_JOURNAL_H_
#define RST_OBS_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rst/common/mutex.h"
#include "rst/common/status.h"
#include "rst/common/thread_annotations.h"

namespace rst::obs {

class JsonWriter;

/// FNV-1a 64-bit digest over the little-endian 4-byte encodings of `ids`,
/// in the order given. Answer digests are taken over the *sorted* result id
/// list (RstknnResult::answers is already ascending), so the digest is
/// independent of algorithm and thread count whenever the answer set is.
uint64_t AnswerDigest(const std::vector<uint32_t>& ids);

/// A digest as the journal writes it: 16 lowercase hex characters (JSON
/// numbers are doubles, so a u64 would lose precision).
std::string DigestHex(uint64_t digest);

/// Appends `"simd_level":..,"force_scalar":..,"build_type":..` — the
/// build/runtime provenance stamped into every artifact (journal headers,
/// bench env blocks) so captures are attributable to the kernel dispatch and
/// build flavor that produced them.
void AppendProvenanceJson(JsonWriter* writer);

/// First line of a workload journal: the capture context replay needs to
/// reconstruct the index and scorer, plus provenance.
struct JournalHeader {
  std::string label;      ///< "rstknn", "rstknn.batch", "load_driver", ...
  std::string data;       ///< dataset path ("" if not materialized)
  std::string algo;       ///< "probe" | "contribution_list"
  std::string tree;       ///< "iur" | "ciur"
  std::string measure;    ///< "ej" | "cos" | "sum"
  std::string weighting;  ///< "tfidf" | "lm" | "binary"
  double alpha = 0.5;
  uint64_t threads = 1;
  /// Sampling stride: every sample_every-th query by index; 0 = no stride
  /// (only slow_ms admits).
  uint64_t sample_every = 1;
  /// Latency admission threshold: a query at or above it is recorded even
  /// off the sampling stride, with its trace and EXPLAIN. < 0 = none (the
  /// key is then not written).
  double slow_ms = -1.0;
  /// DigestHex of exec::DatasetDigest over the captured dataset; "" = none
  /// (not written; journals before version 3 have none).
  std::string dataset_digest;
  /// Shard count of the capturing index, read but never written: journals
  /// captured over a K-shard forest (a removed index kind) carry K > 0, whose
  /// stats a single tree cannot reproduce. Parsed leniently (absent ⇒ 0).
  uint64_t shards = 0;
};

/// Flattened RstknnStats counters carried per record (obs cannot depend on
/// rstknn, so the caller copies the fields over; see exec::ToJournalStats).
struct JournalStats {
  uint64_t io_node_reads = 0;
  uint64_t io_payload_blocks = 0;
  uint64_t io_payload_bytes = 0;
  uint64_t entries_created = 0;
  uint64_t expansions = 0;
  uint64_t pruned_entries = 0;
  uint64_t reported_entries = 0;
  uint64_t bound_computations = 0;
  uint64_t probes = 0;
  uint64_t pq_pops = 0;

  bool operator==(const JournalStats& other) const;
  bool operator!=(const JournalStats& other) const { return !(*this == other); }

  /// "key this->other" for every field whose values differ, in journal key
  /// order and joined by ", "; empty when the two are equal.
  std::string Diff(const JournalStats& other) const;
  /// The record's "stats" object: {"io_node_reads":..,...,"pq_pops":..}.
  void AppendJson(JsonWriter* w) const;
};

/// One captured query. Term weights round-trip exactly: floats are written
/// as shortest-round-trip doubles and parse back to the same float, so a
/// replayed TermVector is bit-identical to the captured one.
struct JournalQueryRecord {
  uint64_t index = 0;  ///< position in the captured run (sampling key)
  double x = 0.0;
  double y = 0.0;
  uint64_t k = 0;
  uint64_t self = kNoSelf;  ///< dataset object id, or kNoSelf for ad-hoc
  std::vector<std::pair<uint32_t, float>> terms;  ///< sorted by term id
  double wall_ms = 0.0;      ///< informational; excluded from replay checks
  std::string phases_json;   ///< pre-serialized {"descent_ms":..} or ""
  std::string trace_json;    ///< pre-serialized QueryTrace JSON or ""
  std::string explain_json;  ///< pre-serialized ExplainRecorder JSON or ""
  uint64_t answer_count = 0;
  uint64_t answer_digest = 0;
  JournalStats stats;

  static constexpr uint64_t kNoSelf = 0xFFFFFFFFull;
};

/// Crash-atomic, sampled, append-only JSONL workload journal.
///
/// Layout: line 1 is a header object (`"type":"header"`), every further
/// line one query record (`"type":"query"`). Each record is formatted into
/// a single buffer and written with one fwrite + fflush, so a crash can
/// only tear the final line — readers skip a trailing partial line. Append
/// is thread-safe (one mutex around the write); records therefore land in
/// completion order under batched execution and carry `index` so replay
/// can restore capture order.
///
/// Admission (ShouldRecord) is one predicate: a query is recorded when its
/// index is on the sampling stride (`index % sample_every == 0`, by index,
/// not arrival order, so two captures sample the same queries at any thread
/// count; `sample_every` 0 has no stride), and also, when the header sets
/// `slow_ms`, when it ran for at least that long (timing-dependent by
/// nature).
class WorkloadRecorder {
 public:
  WorkloadRecorder() = default;
  ~WorkloadRecorder();
  WorkloadRecorder(const WorkloadRecorder&) = delete;
  WorkloadRecorder& operator=(const WorkloadRecorder&) = delete;

  /// Creates/truncates `path` and writes the header line.
  Status Open(const std::string& path, const JournalHeader& header)
      RST_EXCLUDES(mu_);

  /// True between a successful Open() and Close(). Locks `mu_`: callers poll
  /// this from monitor threads while workers Append concurrently.
  bool is_open() const RST_EXCLUDES(mu_);

  /// True when query `index`, which ran for `wall_ms`, is admitted (see the
  /// class comment); false while the journal is closed.
  bool ShouldRecord(uint64_t index, double wall_ms) const RST_EXCLUDES(mu_);

  /// The open header's slow_ms (< 0 = no latency admission).
  double slow_ms() const RST_EXCLUDES(mu_);

  /// Serializes and appends one record; errors latch (first one wins) and
  /// surface from Close() so hot loops need no per-append Status plumbing.
  void Append(const JournalQueryRecord& record) RST_EXCLUDES(mu_);

  uint64_t recorded() const RST_EXCLUDES(mu_);

  /// Final flush + close; returns the first latched append/IO error.
  Status Close() RST_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::FILE* file_ RST_GUARDED_BY(mu_) = nullptr;
  JournalHeader header_ RST_GUARDED_BY(mu_);
  uint64_t recorded_ RST_GUARDED_BY(mu_) = 0;
  Status error_ RST_GUARDED_BY(mu_) = Status::Ok();
};

/// Parsed journal: header plus records sorted by `index` ascending.
struct JournalFile {
  JournalHeader header;
  std::vector<JournalQueryRecord> records;
  uint64_t truncated_lines = 0;  ///< torn/partial trailing lines skipped
};

/// Reads and parses a journal written by WorkloadRecorder. A partial final
/// line (torn write from a crash) is tolerated and counted; any other
/// malformed line is an error.
Result<JournalFile> ReadJournal(const std::string& path);

}  // namespace rst::obs

#endif  // RST_OBS_JOURNAL_H_

#include "rst/obs/trace_event.h"

#include <utility>

#include "rst/common/file_util.h"
#include "rst/obs/json.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/trace.h"

namespace rst::obs {

TraceEventWriter::TraceEventWriter(size_t capacity, uint64_t sample_every)
    : capacity_(capacity),
      sample_every_(sample_every == 0 ? 1 : sample_every),
      epoch_(std::chrono::steady_clock::now()) {}

double TraceEventWriter::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool TraceEventWriter::Append(Event event) {
  MutexLock lock(&mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(event));
  return true;
}

void TraceEventWriter::AddComplete(std::string_view name, const char* cat,
                                   uint32_t tid, double ts_us, double dur_us,
                                   NumArg arg0, NumArg arg1) {
  Event event;
  event.name = std::string(name);
  event.cat = cat;
  event.tid = tid;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.args[0] = arg0;
  event.args[1] = arg1;
  Append(std::move(event));
}

void TraceEventWriter::AddThreadName(uint32_t tid, std::string_view name) {
  Event event;
  event.name = std::string(name);
  event.cat = nullptr;
  event.tid = tid;
  Append(std::move(event));
}

void TraceEventWriter::AppendSpanLocked(const Span& span, uint32_t tid,
                                        double ts_us) {
  // Capacity is checked inline (the lock is already held) so a large tree
  // stops cleanly at the cap instead of emitting a partial child before a
  // full parent.
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  Event event;
  event.name = span.name;
  event.cat = names::kTraceCatSpan;
  event.tid = tid;
  event.ts_us = ts_us;
  event.dur_us = span.total_ms * 1000.0;
  event.calls = span.calls;
  events_.push_back(std::move(event));
  // Children laid out sequentially from the parent's start; their summed
  // durations never exceed the parent's (they are nested sub-intervals of
  // its wall time), so the slices nest.
  double child_ts = ts_us;
  for (const auto& child : span.children) {
    AppendSpanLocked(*child, tid, child_ts);
    child_ts += child->total_ms * 1000.0;
  }
}

void TraceEventWriter::AddSpanTree(const Span& root, uint32_t tid,
                                   double ts_us) {
  MutexLock lock(&mu_);
  AppendSpanLocked(root, tid, ts_us);
}

size_t TraceEventWriter::size() const {
  MutexLock lock(&mu_);
  return events_.size();
}

uint64_t TraceEventWriter::dropped() const {
  MutexLock lock(&mu_);
  return dropped_;
}

void TraceEventWriter::AppendJson(JsonWriter* writer) const {
  MutexLock lock(&mu_);
  writer->BeginObject();
  writer->Key("displayTimeUnit");
  writer->String("ms");
  writer->Key("dropped");
  writer->Uint(dropped_);
  writer->Key("traceEvents");
  writer->BeginArray();
  for (const Event& event : events_) {
    writer->BeginObject();
    writer->Key("name");
    // Metadata events carry the track name in args; their event name is the
    // fixed metadata kind "thread_name" Perfetto keys on.
    writer->String(event.cat == nullptr ? std::string_view("thread_name")
                                        : std::string_view(event.name));
    writer->Key("pid");
    writer->Uint(1);
    writer->Key("tid");
    writer->Uint(event.tid);
    if (event.cat == nullptr) {
      writer->Key("ph");
      writer->String("M");
      writer->Key("cat");
      writer->String("__metadata");
      writer->Key("args");
      writer->BeginObject();
      writer->Key("name");
      writer->String(event.name);
      writer->EndObject();
    } else {
      writer->Key("ph");
      writer->String("X");
      writer->Key("cat");
      writer->String(event.cat);
      writer->Key("ts");
      writer->Double(event.ts_us);
      writer->Key("dur");
      writer->Double(event.dur_us);
      const bool has_args = event.calls > 0 ||
                            event.args[0].key != nullptr ||
                            event.args[1].key != nullptr;
      if (has_args) {
        writer->Key("args");
        writer->BeginObject();
        if (event.calls > 0) {
          writer->Key(names::kTraceArgCalls);
          writer->Uint(event.calls);
        }
        for (const NumArg& arg : event.args) {
          if (arg.key == nullptr) continue;
          writer->Key(arg.key);
          writer->Double(arg.value);
        }
        writer->EndObject();
      }
    }
    writer->EndObject();
  }
  writer->EndArray();
  writer->EndObject();
}

std::string TraceEventWriter::ToJson() const {
  JsonWriter writer;
  AppendJson(&writer);
  return writer.TakeString();
}

Status TraceEventWriter::WriteFile(const std::string& path) const {
  return WriteStringToFileAtomic(path, ToJson());
}

}  // namespace rst::obs

#include "rst/obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "rst/obs/json.h"

namespace rst::obs {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// The child of `parent` named `name`, appended if absent — repeated spans
/// merge into one node.
Span* ChildNamed(Span* parent, std::string_view name) {
  for (const auto& existing : parent->children) {
    if (existing->name == name) return existing.get();
  }
  parent->children.push_back(std::make_unique<Span>());
  Span* child = parent->children.back().get();
  child->name = std::string(name);
  return child;
}

}  // namespace

QueryTrace::QueryTrace(std::string_view root_name) {
  root_ = std::make_unique<Span>();
  root_->name = std::string(root_name);
  root_->calls = 1;
  stack_.push_back({root_.get(), Clock::now()});
}

void QueryTrace::Enter(std::string_view name) {
  if (stack_.empty()) {
    // Re-opened after Finish(): restart the root frame so late spans are
    // still recorded rather than dropped.
    stack_.push_back({root_.get(), Clock::now()});
  }
  stack_.push_back({ChildNamed(stack_.back().span, name), Clock::now()});
}

void QueryTrace::Exit() {
  if (stack_.size() <= 1) return;  // the root closes via Finish()
  Frame frame = stack_.back();
  stack_.pop_back();
  frame.span->total_ms += ElapsedMs(frame.start, Clock::now());
  ++frame.span->calls;
}

void QueryTrace::Finish() {
  while (stack_.size() > 1) Exit();
  if (!stack_.empty()) {
    root_->total_ms += ElapsedMs(stack_.back().start, Clock::now());
    stack_.clear();
  }
}

void QueryTrace::AddCount(std::string_view key, uint64_t n) {
  Span* span = stack_.empty() ? root_.get() : stack_.back().span;
  span->counts[std::string(key)] += n;
}

void QueryTrace::AddCompleted(
    std::string_view name, double ms, uint64_t calls,
    std::span<const std::pair<std::string_view, uint64_t>> counts) {
  Span* span =
      ChildNamed(stack_.empty() ? root_.get() : stack_.back().span, name);
  span->total_ms += ms;
  span->calls += calls;
  for (const auto& [key, n] : counts) span->counts[std::string(key)] += n;
}

namespace {

/// Adds `from`'s counts and (recursively, by name) children into `into`.
void MergeSpanContents(const Span& from, Span* into) {
  for (const auto& [key, value] : from.counts) into->counts[key] += value;
  for (const auto& from_child : from.children) {
    Span* child = ChildNamed(into, from_child->name);
    child->total_ms += from_child->total_ms;
    child->calls += from_child->calls;
    MergeSpanContents(*from_child, child);
  }
}

}  // namespace

void QueryTrace::Merge(const QueryTrace& other) {
  MergeSpanContents(*other.root_,
                    stack_.empty() ? root_.get() : stack_.back().span);
}

namespace {

void AppendSpanText(const Span& span, size_t depth, std::string* out) {
  char line[160];
  std::snprintf(line, sizeof(line), "%*s%-*s %10.3f ms  x%llu",
                static_cast<int>(2 * depth), "",
                static_cast<int>(32 - std::min<size_t>(2 * depth, 30)),
                span.name.c_str(), span.total_ms,
                static_cast<unsigned long long>(span.calls));
  out->append(line);
  if (!span.counts.empty()) {
    out->append("  {");
    bool first = true;
    for (const auto& [key, value] : span.counts) {
      if (!first) out->append(", ");
      first = false;
      out->append(key);
      out->append("=");
      out->append(std::to_string(value));
    }
    out->append("}");
  }
  out->push_back('\n');
  for (const auto& child : span.children) {
    AppendSpanText(*child, depth + 1, out);
  }
}

void AppendSpanJson(const Span& span, JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->String(span.name);
  w->Key("ms");
  w->Double(span.total_ms);
  w->Key("calls");
  w->Uint(span.calls);
  if (!span.counts.empty()) {
    w->Key("counts");
    w->BeginObject();
    for (const auto& [key, value] : span.counts) {
      w->Key(key);
      w->Uint(value);
    }
    w->EndObject();
  }
  if (!span.children.empty()) {
    w->Key("children");
    w->BeginArray();
    for (const auto& child : span.children) AppendSpanJson(*child, w);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

std::string QueryTrace::ToString() const {
  std::string out;
  AppendSpanText(*root_, 0, &out);
  return out;
}

void QueryTrace::AppendJson(JsonWriter* writer) const {
  AppendSpanJson(*root_, writer);
}

std::string QueryTrace::ToJson() const {
  JsonWriter w;
  AppendJson(&w);
  return w.TakeString();
}

}  // namespace rst::obs

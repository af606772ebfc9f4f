#ifndef RST_OBS_JSON_H_
#define RST_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rst/common/status.h"

namespace rst::obs {

/// Minimal JSON document model for the observability exporters: enough to
/// emit metric/trace snapshots and to parse them back (snapshot round-trip
/// tests, bench trajectory tooling). Not a general-purpose JSON library —
/// numbers are doubles, object keys are unique, input must be UTF-8.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  uint64_t AsUint() const { return static_cast<uint64_t>(number_); }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<JsonValue> Parse(std::string_view text);

  /// Structural equality: same kind and value, arrays element-wise, objects
  /// key-wise (key order in the text does not matter).
  bool operator==(const JsonValue& other) const = default;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Streaming writer producing compact JSON. The caller is responsible for
/// well-formedness (Key() before every value inside an object); commas and
/// escaping are handled here. Doubles are written in shortest round-trip
/// form, uint64 values as exact integers.
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(std::string_view key);
  void String(std::string_view value);
  void Uint(uint64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();
  /// Splices `json` in verbatim as one value (commas still handled). The
  /// caller guarantees it is a complete, well-formed JSON value — used to
  /// embed pre-serialized trace/explain documents without re-parsing.
  void RawValue(std::string_view json);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void BeforeValue();

  std::string out_;
  /// One entry per open container: number of values emitted so far.
  std::vector<size_t> counts_;
  bool after_key_ = false;
};

}  // namespace rst::obs

#endif  // RST_OBS_JSON_H_

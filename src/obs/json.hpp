#pragma once
// Minimal deterministic JSON support for the observability layer.
//
// Writing: `json_number` renders doubles via std::to_chars (shortest
// round-trip form), so emitted traces and BENCH files are byte-identical
// across runs, thread counts and locales — a requirement for the golden
// slot-trace test.  Reading: a small recursive-descent parser covering the
// subset this repo emits (objects, arrays, strings, numbers, bools, null),
// enough for tests to consume BENCH_*.json and JSONL traces as written.
// No third-party dependency: the container image is frozen.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace coca::obs {

/// Escape a string for embedding between JSON quotes.
std::string json_escape(std::string_view text);

/// Shortest round-trip decimal rendering of a double (std::to_chars).
/// Non-finite values render as null (JSON has no inf/nan).
std::string json_number(double value);

/// Exact rendering of an integer counter.
std::string json_number(std::int64_t value);

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch so tests
  /// fail loudly when a schema drifts.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; throws std::runtime_error when absent.
  const JsonValue& at(const std::string& key) const;
  bool contains(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_ = nullptr;
};

/// Parse a complete JSON document; throws std::runtime_error with a byte
/// offset on malformed input, trailing garbage, nesting deeper than 256
/// containers or a document longer than 1 MiB.
JsonValue parse_json(std::string_view text);

}  // namespace coca::obs

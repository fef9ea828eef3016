#pragma once
/// \file json.hpp
/// Minimal JSON parser (RFC 8259 subset) used to validate the observability
/// exports: the tests and the bench harness parse every emitted trace /
/// metrics / BENCH document back before trusting it. Not a general-purpose
/// library — no streaming, whole document in memory, object keys kept in
/// insertion order.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vpga::obs::json {

/// One parsed JSON value (tagged union kept simple over compact).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parses `text` into `out`. Returns false (with a position-annotated message
/// in `*error` when supplied) on malformed input or trailing garbage.
bool parse(std::string_view text, Value& out, std::string* error = nullptr);

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
void append_string(std::string& out, std::string_view s);

/// Shortest decimal form of `v` that round-trips bit-exactly through strtod:
/// tries %.15g, %.16g, %.17g in order and keeps the first faithful one, so
/// 0.15 serializes as "0.15" rather than "0.14999999999999999". Non-finite
/// values (JSON has no literals for them) clamp to "0".
std::string format_double(double v);

}  // namespace vpga::obs::json

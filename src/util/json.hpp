// Minimal JSON value model, parser, and writer.
//
// STELLAR's Rule Sets are JSON-structured by design (§4.4.1: the LLM must
// emit a list of {Parameter, Rule Description, Tuning Context} objects), so
// the reproduction needs a real JSON layer; no external dependency is used.
//
// The object type preserves insertion order (rules keep their authored
// order through merge cycles), which std::map would not.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stellar::util {

class Json;

/// Error thrown on malformed documents or wrong-type access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;  // insertion-ordered

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), number_(d) {}
  Json(int i) : type_(Type::Number), number_(i) {}
  Json(std::int64_t i) : type_(Type::Number), number_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(Array a) : type_(Type::Array), array_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), object_(std::move(o)) {}

  [[nodiscard]] static Json makeArray() { return Json{Array{}}; }
  [[nodiscard]] static Json makeObject() { return Json{Object{}}; }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool isNull() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool isBool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool isNumber() const noexcept { return type_ == Type::Number; }
  [[nodiscard]] bool isString() const noexcept { return type_ == Type::String; }
  [[nodiscard]] bool isArray() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool isObject() const noexcept { return type_ == Type::Object; }

  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  /// This number as integer type T, truncated toward zero as static_cast
  /// truncates. Throws JsonError when it is not a number, not finite, or
  /// outside T's range after truncation (where the cast is undefined).
  template <std::integral T>
  [[nodiscard]] T asInteger() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] Array& asArray();
  [[nodiscard]] const Object& asObject() const;
  [[nodiscard]] Object& asObject();

  /// Object member lookup; throws JsonError if missing or not an object.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// True if this is an object containing `key`.
  [[nodiscard]] bool contains(std::string_view key) const noexcept;

  /// Object member lookup with a fallback default.
  [[nodiscard]] std::string getString(std::string_view key, std::string fallback = {}) const;
  [[nodiscard]] double getNumber(std::string_view key, double fallback = 0.0) const;
  [[nodiscard]] bool getBool(std::string_view key, bool fallback = false) const;
  /// Member `key` through asInteger<T>(); `fallback` when it is absent or
  /// not a number, as getNumber() falls back.
  template <std::integral T>
  [[nodiscard]] T getInteger(std::string_view key, T fallback) const {
    return contains(key) && at(key).isNumber() ? at(key).asInteger<T>() : fallback;
  }

  /// Sets (or replaces) an object member. Throws if not an object.
  void set(std::string key, Json value);

  /// Appends to an array. Throws if not an array.
  void push(Json value);

  /// Serializes; indent < 0 yields compact output.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses a complete document; throws JsonError carrying 1-based
  /// line/column (plus byte offset) of the first syntax error.
  [[nodiscard]] static Json parse(std::string_view text);

  [[nodiscard]] bool operator==(const Json& other) const;

 private:
  void dumpTo(std::string& out, int indent, int depth) const;
  [[noreturn]] static void throwNotInteger(double value);

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

template <std::integral T>
T Json::asInteger() const {
  // T holds exactly [-2^digits, 2^digits) (signed) or [0, 2^digits)
  // (unsigned); powers of two are exact doubles, so the bounds are exact.
  const double value = std::trunc(asNumber());
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lowest = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (!(value >= lowest && value < limit)) {  // NaN fails both comparisons
    throwNotInteger(asNumber());
  }
  return static_cast<T>(value);
}

}  // namespace stellar::util

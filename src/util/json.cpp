#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace stellar::util {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// 1-based line/column diagnostics: "JSON error at line 3, column 14
  /// (offset 41): expected ':'" — callers surface this to users whose
  /// input came from hand-edited files.
  [[noreturn]] void fail(std::string_view what, std::size_t pos) const {
    std::size_t line = 1;
    std::size_t column = 1;
    const std::size_t clamped = std::min(pos, text_.size());
    for (std::size_t i = 0; i < clamped; ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError("JSON error at line " + std::to_string(line) + ", column " +
                    std::to_string(column) + " (offset " + std::to_string(pos) +
                    "): " + std::string{what});
  }

  Json parseDocument() {
    Json value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters", pos_);
    }
    return value;
  }

 private:
  void skipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input", pos_);
    }
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      fail(std::string("expected '") + c + "'", pos_ - 1);
    }
  }

  bool consumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// Nesting cap for the recursive-descent parser. Without it a
  /// deep-nesting bomb ("[[[[...") overflows the stack instead of
  /// reporting a JsonError; 256 is far beyond any legitimate document in
  /// this repo while keeping worst-case stack use trivially safe.
  static constexpr int kMaxDepth = 256;

  Json parseValue() {
    skipWhitespace();
    if (depth_ >= kMaxDepth) {
      fail("nesting too deep", pos_);
    }
    const char c = peek();
    switch (c) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"':
        return Json{parseString()};
      case 't':
        if (consumeLiteral("true")) return Json{true};
        fail("invalid literal", pos_);
      case 'f':
        if (consumeLiteral("false")) return Json{false};
        fail("invalid literal", pos_);
      case 'n':
        if (consumeLiteral("null")) return Json{};
        fail("invalid literal", pos_);
      default:
        return parseNumber();
    }
  }

  Json parseObject() {
    ++depth_;
    expect('{');
    Json::Object members;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return Json{std::move(members)};
    }
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      members.emplace_back(std::move(key), parseValue());
      skipWhitespace();
      const char c = take();
      if (c == '}') {
        break;
      }
      if (c != ',') {
        fail("expected ',' or '}' in object", pos_ - 1);
      }
    }
    --depth_;
    return Json{std::move(members)};
  }

  Json parseArray() {
    ++depth_;
    expect('[');
    Json::Array items;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return Json{std::move(items)};
    }
    while (true) {
      items.push_back(parseValue());
      skipWhitespace();
      const char c = take();
      if (c == ']') {
        break;
      }
      if (c != ',') {
        fail("expected ',' or ']' in array", pos_ - 1);
      }
    }
    --depth_;
    return Json{std::move(items)};
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') {
        break;
      }
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape", pos_ - 1);
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are rare in
            // rule text; lone surrogates are encoded as-is).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("invalid escape", pos_ - 1);
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      fail("invalid number", start);
    }
    return Json{v};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void escapeInto(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

bool Json::asBool() const {
  if (type_ != Type::Bool) {
    throw JsonError("not a bool");
  }
  return bool_;
}

double Json::asNumber() const {
  if (type_ != Type::Number) {
    throw JsonError("not a number");
  }
  return number_;
}

void Json::throwNotInteger(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "number %.12g is out of the integer field's range",
                value);
  throw JsonError(buf);
}

const std::string& Json::asString() const {
  if (type_ != Type::String) {
    throw JsonError("not a string");
  }
  return string_;
}

const Json::Array& Json::asArray() const {
  if (type_ != Type::Array) {
    throw JsonError("not an array");
  }
  return array_;
}

Json::Array& Json::asArray() {
  if (type_ != Type::Array) {
    throw JsonError("not an array");
  }
  return array_;
}

const Json::Object& Json::asObject() const {
  if (type_ != Type::Object) {
    throw JsonError("not an object");
  }
  return object_;
}

Json::Object& Json::asObject() {
  if (type_ != Type::Object) {
    throw JsonError("not an object");
  }
  return object_;
}

const Json& Json::at(std::string_view key) const {
  for (const auto& [k, v] : asObject()) {
    if (k == key) {
      return v;
    }
  }
  throw JsonError("missing key: " + std::string{key});
}

bool Json::contains(std::string_view key) const noexcept {
  if (type_ != Type::Object) {
    return false;
  }
  for (const auto& [k, v] : object_) {
    (void)v;
    if (k == key) {
      return true;
    }
  }
  return false;
}

std::string Json::getString(std::string_view key, std::string fallback) const {
  if (contains(key) && at(key).isString()) {
    return at(key).asString();
  }
  return fallback;
}

double Json::getNumber(std::string_view key, double fallback) const {
  if (contains(key) && at(key).isNumber()) {
    return at(key).asNumber();
  }
  return fallback;
}

bool Json::getBool(std::string_view key, bool fallback) const {
  if (contains(key) && at(key).isBool()) {
    return at(key).asBool();
  }
  return fallback;
}

void Json::set(std::string key, Json value) {
  for (auto& [k, v] : asObject()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

void Json::push(Json value) {
  asArray().push_back(std::move(value));
}

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
    }
  };
  switch (type_) {
    case Type::Null:
      out += "null";
      break;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Type::Number: {
      if (std::isfinite(number_) && number_ == std::floor(number_) &&
          std::fabs(number_) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(number_));
        out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.12g", number_);
        out += buf;
      }
      break;
    }
    case Type::String:
      escapeInto(out, string_);
      break;
    case Type::Array: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        newline(depth + 1);
        array_[i].dumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        newline(depth);
      }
      out.push_back(']');
      break;
    }
    case Type::Object: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        newline(depth + 1);
        escapeInto(out, object_[i].first);
        out += indent >= 0 ? ": " : ":";
        object_[i].second.dumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        newline(depth);
      }
      out.push_back('}');
      break;
    }
  }
}

Json Json::parse(std::string_view text) {
  Parser parser{text};
  return parser.parseDocument();
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) {
    return false;
  }
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Number: return number_ == other.number_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
  }
  return false;
}

}  // namespace stellar::util

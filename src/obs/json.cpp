#include "obs/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <stdexcept>

namespace coca::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buffer{};
          std::snprintf(buffer.data(), buffer.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::array<char, 32> buffer{};
  const auto [end, ec] =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  if (ec != std::errc{}) return "null";
  return std::string(buffer.data(), end);
}

std::string json_number(std::int64_t value) {
  std::array<char, 24> buffer{};
  const auto [end, ec] =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  if (ec != std::errc{}) return "0";
  return std::string(buffer.data(), end);
}

bool JsonValue::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  throw std::runtime_error("JsonValue: not a bool");
}

double JsonValue::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  throw std::runtime_error("JsonValue: not a number");
}

const std::string& JsonValue::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  throw std::runtime_error("JsonValue: not a string");
}

const JsonValue::Array& JsonValue::as_array() const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  throw std::runtime_error("JsonValue: not an array");
}

const JsonValue::Object& JsonValue::as_object() const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  throw std::runtime_error("JsonValue: not an object");
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) {
    throw std::runtime_error("JsonValue: missing key '" + key + "'");
  }
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  const auto& object = as_object();
  return object.find(key) != object.end();
}

namespace {

// Containers nested deeper than this are rejected: parse_value recurses
// once per level, so unbounded nesting in a hostile or corrupt document
// (a checkpoint blob, a trace line) would otherwise overflow the stack.
constexpr int kMaxDepth = 256;

// Documents longer than this are rejected before parsing, so a hostile or
// runaway input cannot make the parser build an arbitrarily large tree.  The
// largest document any writer in this repo emits is a ~3 KB BENCH report;
// checkpoint blobs and trace lines are under 2 KB.
constexpr std::size_t kMaxBytes = std::size_t{1} << 20;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    if (text_.size() > kMaxBytes) {
      pos_ = kMaxBytes;
      fail("document larger than " + std::to_string(kMaxBytes) + " bytes");
    }
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::string message = "JSON parse error at byte ";
    message += std::to_string(pos_);
    message += ": ";
    message += what;
    throw std::runtime_error(message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    if (c == '{' || c == '[') {
      // A throw abandons the whole parse, so depth_ needs no unwinding.
      if (++depth_ > kMaxDepth) fail("nesting too deep");
      JsonValue container = c == '{' ? parse_object() : parse_array();
      --depth_;
      return container;
    }
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue(nullptr);
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.emplace(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue(std::move(object));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue(std::move(array));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc{} || end != text_.data() + pos_ + 4) {
            fail("bad \\u escape");
          }
          pos_ += 4;
          // The emitter only writes \u00XX control escapes; decode the
          // low plane as raw bytes and let multi-byte text pass through
          // unescaped elsewhere.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += '?';
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_) fail("bad number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers currently open (see kMaxDepth)
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace coca::obs

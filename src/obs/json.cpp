#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vpga::obs::json {
namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool run(Value& out, std::string* error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      if (error != nullptr) *error = message_at(err_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = message_at("trailing characters after value");
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* msg) {
    if (err_ == nullptr) err_ = msg;
    return false;
  }

  [[nodiscard]] std::string message_at(const char* msg) const {
    return std::string(msg != nullptr ? msg : "parse error") + " at offset " +
           std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail("invalid literal");
    pos_ += lit.size();
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind = Value::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return consume_literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.boolean = false;
        return consume_literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return consume_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out, int depth) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (at_end() || peek() != ':') return fail("expected ':' in object");
      ++pos_;
      skip_ws();
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out, int depth) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      unsigned digit = 0;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A') + 10;
      else return fail("invalid \\u escape");
      out = out * 16 + digit;
    }
    pos_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening '"'
    out.clear();
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: the low half must follow as another \uXXXX.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
              return fail("unpaired high surrogate");
            pos_ += 2;
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: return fail("invalid escape sequence");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') return fail("invalid number");
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("invalid number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("invalid number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind = Value::Kind::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out.number)) return fail("number out of range");
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* err_ = nullptr;
};

}  // namespace

bool parse(std::string_view text, Value& out, std::string* error) {
  out = Value{};
  return Parser(text).run(out, error);
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;  // faithful; keep the shortest
  }
  return buf;
}

}  // namespace vpga::obs::json

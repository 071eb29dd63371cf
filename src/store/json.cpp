#include "store/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "common/contracts.hpp"
#include "common/fmt.hpp"

namespace araxl::store {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    check(pos_ == text_.size(), err("trailing characters after JSON value"));
    return v;
  }

 private:
  [[nodiscard]] std::string err(const std::string& what) const {
    return "JSON error at offset " + std::to_string(pos_) + ": " + what;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    check(pos_ < text_.size(), err("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    check(peek() == c, err(std::string("expected '") + c + "'"));
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void literal(std::string_view word) {
    check(text_.substr(pos_, word.size()) == word,
          err("bad literal (expected " + std::string(word) + ")"));
    pos_ += word.size();
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.text = string();
        return v;
      }
      case 't': {
        literal("true");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        literal("false");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        return v;
      }
      case 'n': {
        literal("null");
        return JsonValue{};
      }
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (consume('}')) return v;
    for (;;) {
      std::string key = string();
      expect(':');
      v.fields.emplace_back(std::move(key), value());
      if (consume('}')) return v;
      expect(',');
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (consume(']')) return v;
    for (;;) {
      v.items.push_back(value());
      if (consume(']')) return v;
      expect(',');
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      check(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      check(pos_ < text_.size(), err("unterminated escape"));
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
          check(pos_ + 4 <= text_.size(), err("truncated \\u escape"));
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            check(std::isxdigit(static_cast<unsigned char>(h)) != 0,
                  err("bad \\u escape"));
            code = code * 16 +
                   static_cast<unsigned>(h <= '9' ? h - '0'
                                                  : (h | 0x20) - 'a' + 10);
          }
          // The store only writes control characters this way; emit other
          // code points as UTF-8 so round trips stay lossless.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(err("unknown escape"));
      }
    }
  }

  JsonValue number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    check(pos_ > start, err("expected a value"));
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    // Validate the spelling now so corrupt digits fail at parse time.
    (void)v.as_double();
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t JsonValue::as_u64() const {
  check(kind == Kind::kNumber, "JSON value is not a number");
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  check(ec == std::errc() && ptr == text.data() + text.size(),
        "JSON number is not an unsigned integer: '" + text + "'");
  return v;
}

double JsonValue::as_double() const {
  check(kind == Kind::kNumber, "JSON value is not a number");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  check(end == text.c_str() + text.size() && !text.empty(),
        "bad JSON number: '" + text + "'");
  return v;
}

const std::string& JsonValue::as_string() const {
  check(kind == Kind::kString, "JSON value is not a string");
  return text;
}

bool JsonValue::as_bool() const {
  check(kind == Kind::kBool, "JSON value is not a bool");
  return boolean;
}

JsonValue parse_json(std::string_view text) { return Parser(text).document(); }

std::string json_u64(std::uint64_t v) {
  return strprintf("%llu", static_cast<unsigned long long>(v));
}

std::string json_double(double v) { return strprintf("%.17g", v); }

void append_stats_fields(std::string& out, const RunStats& s, StatsForm form,
                         bool zero_opt_in) {
  const bool named = form == StatsForm::kReport;
  bool first = true;
  for (const StatField& f : kRunStatsFields) {
    if (named && !f.in_report()) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += f.key;
    out += "\":";
    const bool zero = zero_opt_in && f.opt_in();
    const auto w = f.words(s);
    if (!f.is_array()) {
      out += json_u64(zero ? 0 : w[0]);
      continue;
    }
    out += named ? '{' : '[';
    for (std::size_t i = 0; i < f.count; ++i) {
      if (i != 0) out += ',';
      if (named) {
        out += '"';
        out += f.elem_name(i);
        out += "\":";
      }
      out += json_u64(zero ? 0 : w[i]);
    }
    out += named ? '}' : ']';
  }
}

RunStats read_stats_fields(const JsonValue& obj, StatsForm form) {
  const bool named = form == StatsForm::kReport;
  RunStats s;
  for (const StatField& f : kRunStatsFields) {
    if (named && !f.in_report()) continue;
    const JsonValue* v = obj.get(f.key);
    if (v == nullptr) {
      if (!f.tolerant()) {
        fail("record is missing stats field '" + std::string(f.key) + "'");
      }
      continue;
    }
    const auto w = f.words(s);
    if (!f.is_array()) {
      w[0] = v->as_u64();
    } else if (named) {
      for (std::size_t i = 0; i < f.count; ++i) {
        if (const JsonValue* e = v->get(f.elem_name(i))) w[i] = e->as_u64();
      }
    } else {
      check(v->kind == JsonValue::Kind::kArray && v->items.size() == f.count,
            "record has a malformed stats array");
      for (std::size_t i = 0; i < f.count; ++i) w[i] = v->items[i].as_u64();
    }
  }
  return s;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace araxl::store

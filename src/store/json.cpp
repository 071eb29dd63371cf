#include "store/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <source_location>

#include "common/contracts.hpp"

namespace araxl::store {

namespace {

// The spellings strtod() consumes whole, over the characters number()
// collects: [+-]? (D+ (. D*)? | . D+) ([eE] [+-]? D+)?
bool strtod_spelling(std::string_view s) {
  std::size_t i = 0;
  const auto sign = [&] {
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  };
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i - from;
  };
  sign();
  std::size_t mantissa = digits();
  if (i < s.size() && s[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    sign();
    if (digits() == 0) return false;
  }
  return i == s.size();
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    need(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  using Loc = std::source_location;

  // Error text is built only on failure: need() runs once per character
  // inside strings, so an eagerly formatted message would dominate a parse.
  [[noreturn]] static void raise(std::size_t at, std::string_view what,
                                 Loc loc = Loc::current()) {
    fail("JSON error at offset " + std::to_string(at) + ": " +
             std::string(what),
         loc);
  }

  void need(bool ok, std::string_view what, Loc loc = Loc::current()) const {
    if (!ok) [[unlikely]] raise(pos_, what, loc);
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
    need(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    // A mismatch reports the offset before any whitespace is skipped.
    const std::size_t at = pos_;
    if (peek() != c) [[unlikely]] {
      raise(at, std::string("expected '") + c + "'");
    }
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
    if (text_.substr(pos_, word.size()) != word) [[unlikely]] {
      raise(pos_, "bad literal (expected " + std::string(word) + ")");
    }
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
      // Copy the run of plain bytes up to the next quote or escape at once.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_.substr(run, pos_ - run));
      need(pos_ < text_.size(), "unterminated string");
      if (text_[pos_++] == '"') return out;
      need(pos_ < text_.size(), "unterminated escape");
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
          need(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            need(std::isxdigit(static_cast<unsigned char>(h)) != 0,
                 "bad \\u escape");
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
        default: raise(pos_, "unknown escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    need(pos_ > start, "expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    // Validate the spelling now so corrupt digits fail at parse time.
    if (!strtod_spelling(v.text)) [[unlikely]] {
      fail("bad JSON number: '" + v.text + "'");
    }
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

const JsonValue& require_field(const JsonValue& obj, std::string_view key,
                               std::string_view what) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) {
    fail(std::string(what) + " is missing field '" + std::string(key) + "'");
  }
  return *v;
}

std::uint64_t JsonValue::as_u64() const {
  check(kind == Kind::kNumber, "JSON value is not a number");
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) [[unlikely]] {
    fail("JSON number is not an unsigned integer: '" + text + "'");
  }
  return v;
}

double JsonValue::as_double() const {
  check(kind == Kind::kNumber, "JSON value is not a number");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) [[unlikely]] {
    fail("bad JSON number: '" + text + "'");
  }
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

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];  // UINT64_MAX has 20 digits
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_double(std::string& out, double v) {
  // Longest %.17g spelling: "-1.2345678901234567e-308" (24 bytes).
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void append_escaped(std::string& out, std::string_view s) {
  constexpr std::string_view kHex = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.substr(run));
}

void append_stats_fields(JsonWriter& w, const RunStats& s, StatsForm form,
                         bool zero_opt_in) {
  const bool named = form == StatsForm::kReport;
  for (const StatField& f : kRunStatsFields) {
    if (named && !f.in_report()) continue;
    w.key(f.key);
    const bool zero = zero_opt_in && f.opt_in();
    const auto words = f.words(s);
    if (!f.is_array()) {
      w.u64(zero ? 0 : words[0]);
      continue;
    }
    if (named) {
      w.open();
      for (std::size_t i = 0; i < f.count; ++i) {
        w.key(f.elem_name(i)).u64(zero ? 0 : words[i]);
      }
      w.close();
    } else {
      w.open_array();
      for (const std::uint64_t v : words) w.u64(zero ? 0 : v);
      w.close_array();
    }
  }
}

RunStats read_stats_fields(const JsonValue& obj, StatsForm form) {
  const bool named = form == StatsForm::kReport;
  // One pass over the members finds what obj.get() would for every row
  // (the first member of that name). Writers emit the rows in table
  // order, so the row after the last match is tried first.
  constexpr std::size_t kRows = kRunStatsFields.size();
  std::array<const JsonValue*, kRows> found{};
  std::size_t row = 0;
  for (const auto& [key, value] : obj.fields) {
    if (row >= kRows || kRunStatsFields[row].key != key) {
      row = 0;
      while (row < kRows && kRunStatsFields[row].key != key) ++row;
      if (row == kRows) continue;  // not a stats field
    }
    if (found[row] == nullptr) found[row] = &value;
    ++row;
  }
  RunStats s;
  for (std::size_t r = 0; r < kRows; ++r) {
    const StatField& f = kRunStatsFields[r];
    if (named && !f.in_report()) continue;
    const JsonValue* v = found[r];
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

}  // namespace araxl::store

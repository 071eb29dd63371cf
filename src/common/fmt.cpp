#include "common/fmt.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

#include "common/contracts.hpp"

namespace araxl {

std::string fmt_f(double v, int prec) {
  // std::to_chars in fixed format is specified to print what printf's
  // "%.*f" prints in the C locale, at a fraction of its cost. The buffer
  // holds DBL_MAX's 309 integer digits plus the fraction.
  check(prec >= 0 && prec <= 40, "fmt_f precision out of range");
  char buf[360];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, prec);
  return std::string(buf, res.ptr);
}

std::string fmt_pct(double frac, int prec) {
  return fmt_f(frac * 100.0, prec) + '%';
}

std::string fmt_group(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string fmt_eng(double v, int prec) {
  const char* suffix = "";
  double scaled = v;
  if (v >= 1e9) {
    scaled = v / 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    scaled = v / 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    scaled = v / 1e3;
    suffix = "K";
  }
  return fmt_f(scaled, prec) + suffix;
}

std::string strprintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  // The first pass only measures; the second writes into a string of
  // exactly that size (its terminator slot takes vsnprintf's '\0').
  const int n = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, format, again);
  }
  va_end(again);
  return out;
}

}  // namespace araxl

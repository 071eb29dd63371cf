// printf-style formatting into std::string. GCC 12 does not ship
// std::format, so benches and the disassembler use these thin wrappers.
#ifndef ARAXL_COMMON_FMT_HPP
#define ARAXL_COMMON_FMT_HPP

#include <string>

namespace araxl {

/// Formats a double with `prec` digits after the decimal point.
std::string fmt_f(double v, int prec = 2);

/// Formats a double as a percentage ("97.3%") with `prec` decimals.
std::string fmt_pct(double frac, int prec = 1);

/// Formats an integer with thousands separators ("12,641").
std::string fmt_group(std::uint64_t v);

/// Formats `v` with an engineering suffix (K/M/G) and `prec` decimals.
std::string fmt_eng(double v, int prec = 2);

/// sprintf-like convenience; the result has the full formatted length.
std::string strprintf(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace araxl

#endif  // ARAXL_COMMON_FMT_HPP

#include "machine/functional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace araxl {

namespace {

// binary16 <-> binary64. All FP arithmetic in this engine runs in double;
// like the SEW=32 float cast, the narrowing conversion rounds exactly once
// on writeback (round-to-nearest-even), so bulk and per-element paths agree
// bit for bit.
double f16_to_f64(std::uint16_t h) {
  const int exp = (h >> 10) & 0x1F;
  const std::uint32_t frac = h & 0x3FF;
  double v;
  if (exp == 0x1F) {
    v = frac != 0 ? std::numeric_limits<double>::quiet_NaN()
                  : std::numeric_limits<double>::infinity();
  } else if (exp == 0) {
    v = std::ldexp(static_cast<double>(frac), -24);  // subnormal or zero
  } else {
    v = std::ldexp(static_cast<double>(frac + 1024), exp - 25);
  }
  return (h & 0x8000) != 0 ? -v : v;
}

std::uint16_t f64_to_f16(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  const auto sign = static_cast<std::uint16_t>((bits >> 48) & 0x8000);
  const int e = static_cast<int>((bits >> 52) & 0x7FF);
  const std::uint64_t mant = bits & 0xFFFFFFFFFFFFFULL;
  if (e == 0x7FF) {  // inf / NaN (NaN payloads canonicalised to quiet)
    return static_cast<std::uint16_t>(sign | 0x7C00 | (mant != 0 ? 0x200 : 0));
  }
  int he = e - 1023 + 15;
  if (he >= 31) return static_cast<std::uint16_t>(sign | 0x7C00);  // -> inf
  std::uint64_t sig = mant | (e != 0 ? (1ULL << 52) : 0);
  int shift = 42;  // 52-bit significand -> 10-bit fraction
  if (he <= 0) {   // subnormal target: shift the hidden bit into the fraction
    shift += 1 - he;
    he = 0;
  }
  if (shift >= 64) return sign;  // below half the smallest subnormal
  const std::uint64_t keep = sig >> shift;
  const std::uint64_t rem = sig & ((1ULL << shift) - 1);
  const std::uint64_t half = 1ULL << (shift - 1);
  std::uint64_t rounded = keep;
  if (rem > half || (rem == half && (keep & 1) != 0)) ++rounded;
  if (he == 0) {
    // A carry out of the fraction lands on the exponent-1 bit, which is
    // already the correct smallest-normal encoding.
    return static_cast<std::uint16_t>(sign | rounded);
  }
  // `keep` includes the hidden bit (1024). The plain addition lets a carry
  // to 2048 bump the exponent, and he==30 overflowing to 31 produces the
  // infinity encoding — both intentional.
  return static_cast<std::uint16_t>(
      sign + (static_cast<std::uint64_t>(he) << 10) + rounded - 1024);
}

// ---- element codecs ---------------------------------------------------------
// Register elements are raw SEW-bit words. FP rows compute in double: fp_in
// widens exactly and fp_out rounds once, so no result depends on whether
// the value passed through a narrower format in between.

constexpr std::string_view kFpSewOnly = "FP operations require SEW of 16, 32 or 64";

template <typename T>
double fp_in(T bits) {
  if constexpr (sizeof(T) == 8) {
    return std::bit_cast<double>(bits);
  } else if constexpr (sizeof(T) == 4) {
    return static_cast<double>(std::bit_cast<float>(bits));
  } else if constexpr (sizeof(T) == 2) {
    return f16_to_f64(bits);
  } else {
    fail(kFpSewOnly);
  }
}

template <typename T>
T fp_out(double v) {
  if constexpr (sizeof(T) == 8) {
    return std::bit_cast<T>(v);
  } else if constexpr (sizeof(T) == 4) {
    return std::bit_cast<T>(static_cast<float>(v));
  } else if constexpr (sizeof(T) == 2) {
    return f64_to_f16(v);
  } else {
    fail(kFpSewOnly);
  }
}

/// Result of an FP operation: rounded once, and a NaN is the canonical
/// NaN, since RISC-V does not propagate NaN payloads. This also makes the
/// bits independent of the operand order the compiler picks for a + b.
template <typename T>
T fp_result(double v) {
  return fp_out<T>(std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v);
}

/// Sign injection works on raw bits, so a NaN keeps its payload.
template <typename T, typename U>
T sign_inject(T magnitude, U sign) {
  constexpr T kSign = static_cast<T>(T{1} << (8 * sizeof(T) - 1));
  return static_cast<T>((magnitude & static_cast<T>(~kSign)) |
                        (static_cast<T>(sign) & kSign));
}

template <typename T>
auto sgn(T v) {
  return static_cast<std::make_signed_t<T>>(v);
}

/// Widens before a multiply or shift: uint16 operands would otherwise be
/// promoted to int, whose overflow is undefined.
template <typename T>
std::uint64_t wide(T v) {
  return v;
}

/// vfcvt.x.f.v: round to nearest even, then saturate to the signed SEW-bit
/// range; NaN converts to the maximum (RVV 1.0).
template <typename T>
T fp_to_int(T bits) {
  using S = std::make_signed_t<T>;
  constexpr auto kLimit = static_cast<double>(std::uint64_t{1} << (8 * sizeof(T) - 1));
  const double r = std::nearbyint(fp_in(bits));
  if (std::isnan(r) || r >= kLimit) {
    return static_cast<T>(std::numeric_limits<S>::max());
  }
  if (r < -kLimit) return static_cast<T>(std::numeric_limits<S>::min());
  return static_cast<T>(static_cast<S>(r));
}

/// vfcvt.f.x.v: the word is a signed SEW-bit integer, rounded once to FP.
template <typename T>
T int_to_fp(T bits) {
  return fp_out<T>(static_cast<double>(sgn(bits)));
}

// ---- the op table -----------------------------------------------------------

/// Element class of a row: how its operands are read and its result stored.
enum class Kind : std::uint8_t {
  kInt,        ///< SEW-bit integers in, integer out
  kFp,         ///< FP at SEW, computed in double, rounded once
  kFpToMask,   ///< FP compare, one bit into a mask register
  kMaskLogic,  ///< mask bits in, mask bit out
  kMerge,      ///< like kInt, but where v0 is clear vd takes vs2's bits
  kFpBits,     ///< raw SEW-bit words at an FP SEW: conversions, moves, sign
  kFold,       ///< FP reduction of vs2 onto vs1[0], into vd[0]
  kSlide,      ///< vd[i] = vs2[j(i)], with RVV's fill where j is out of range
};
using enum Kind;

template <Kind K>
constexpr bool kFpOnly = K == kFp || K == kFpToMask || K == kFpBits || K == kFold;

/// Operand type an element lambda sees, for SEW word type T.
template <Kind K, typename T>
using Val = std::conditional_t<
    K == kFp || K == kFpToMask || K == kFold, double,
    std::conditional_t<K == kMaskLogic, bool, T>>;

/// Operands of element i for an elementwise row. An operand the op's
/// OpSpec does not read holds an unspecified value.
template <typename V, typename S>
struct Elem {
  V a;  ///< vs2[i]
  V b;  ///< vs1[i]
  V d;  ///< vd[i] before the op
  S s;  ///< scalar: fs for .vf forms, xs otherwise
  std::uint64_t i;
  static constexpr unsigned kBits = 8 * sizeof(V);
};

/// One instruction as the executors see it.
struct OpArgs {
  Vrf& vrf;
  const VInstr& in;
  const OpSpec& spec;
  unsigned ew;          ///< element bytes at the current SEW
  std::uint64_t n;      ///< elements covered: vl, or 1 for elem0_only ops
  std::uint64_t vlmax;
  double fs;            ///< the .vf scalar, after fs_from_acc
  OpScratch& buf;
};

template <Kind K, typename T>
Val<K, T> decode(T bits) {
  if constexpr (std::is_same_v<Val<K, T>, double>) {
    return fp_in(bits);
  } else {
    return static_cast<Val<K, T>>(bits);
  }
}

template <Kind K, typename T, typename R>
T encode(R r) {
  if constexpr (K == kFp) {
    return fp_result<T>(r);
  } else {
    return static_cast<T>(r);
  }
}

/// The scalar operand. Computed before any register is touched, so that a
/// .vf row at SEW 8 fails with the VRF unchanged.
template <Kind K, typename T>
auto scalar(const OpArgs& x) {
  if constexpr (std::is_same_v<Val<K, T>, double>) {
    return x.fs;
  } else if constexpr (K == kMaskLogic) {
    return false;
  } else {
    return x.spec.reads_scalar_acc_ok ? fp_out<T>(x.fs) : static_cast<T>(x.in.xs);
  }
}

/// Slide amount, clamped to VLMAX so that i + k cannot wrap.
std::int64_t slide_amount(const OpArgs& x) {
  return static_cast<std::int64_t>(
      std::min(static_cast<std::uint64_t>(x.in.xs), x.vlmax));
}

/// A slide row maps vd[i] to vs2[j]. Sources j in [0, limit) exist; a j
/// outside is where RVV fills: a .vf form (vfslide1up/down) writes the
/// scalar, a .vx form leaves the head (j < 0) undisturbed and writes 0
/// past VLMAX.
std::int64_t slide_limit(const OpArgs& x) {
  return static_cast<std::int64_t>(x.spec.reads_scalar_acc_ok ? x.n : x.vlmax);
}

const std::uint8_t* read_v0(OpArgs& x) {
  x.buf.v0.resize(x.n);
  x.vrf.read_mask_stream(0, x.n, x.buf.v0.data());
  return x.buf.v0.data();
}

/// Calls fn with a value of the unsigned word type of the current SEW.
/// Mask logic reads and writes bits only, so it has one instantiation.
template <Kind K, typename Fn>
void with_width(unsigned ew, Fn&& fn) {
  if constexpr (K == kMaskLogic) {
    fn(std::uint8_t{});
  } else {
    switch (ew) {
      case 2: fn(std::uint16_t{}); return;
      case 4: fn(std::uint32_t{}); return;
      case 8: fn(std::uint64_t{}); return;
      default: break;
    }
    if constexpr (kFpOnly<K>) {
      fail(kFpSewOnly);
    } else {
      fn(std::uint8_t{});
    }
  }
}

// ---- stream executor --------------------------------------------------------
// Reads v0 once per instruction and computes from packed register spans,
// with masked-off elements blended on raw bits.

/// Rows whose destination is an element group (kInt, kFp, kMerge, kFpBits).
template <Kind K, typename F, typename T>
void stream_elems(OpArgs& x) {
  const auto s = scalar<K, T>(x);
  const VInstr& in = x.in;
  const std::uint64_t n = x.n;
  constexpr bool kMergeRow = K == kMerge;
  const std::uint8_t* m = in.masked || kMergeRow ? read_v0(x) : nullptr;
  // A source that coincides with vd or misses it entirely is read in place
  // from the packed mirror. A shifted overlap is staged first: the in-place
  // loop would read elements it has already written.
  const std::uint64_t epr = x.vrf.mapping().elems_per_reg(sizeof(T));
  const auto regs = static_cast<unsigned>((n + epr - 1) / epr);
  const auto source = [&](unsigned reg, std::vector<std::uint8_t>& stage) {
    if (reg == in.vd || reg + regs <= in.vd || in.vd + regs <= reg) {
      return reinterpret_cast<const T*>(x.vrf.packed_read_span(reg, n, sizeof(T)));
    }
    stage.resize(n * sizeof(T));
    x.vrf.read_stream(reg, n, sizeof(T), stage.data());
    return reinterpret_cast<const T*>(stage.data());
  };
  const T* a = x.spec.reads_vs2 ? source(in.vs2, x.buf.a) : nullptr;
  const T* b = x.spec.reads_vs1 ? source(in.vs1, x.buf.b) : nullptr;
  T* d = reinterpret_cast<T*>(x.vrf.packed_write_span(
      in.vd, n, sizeof(T), x.spec.reads_vd || (in.masked && !kMergeRow)));
  // An operand the op does not read points anywhere valid; the row ignores it.
  if (a == nullptr) a = d;
  if (b == nullptr) b = d;
  const F f{};
  const auto run = [&](auto masked) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const T r = encode<K, T>(f(Elem<Val<K, T>, decltype(s)>{
          decode<K>(a[i]), decode<K>(b[i]), decode<K>(d[i]), s, i}));
      if constexpr (decltype(masked)::value) {
        d[i] = m[i] != 0 ? r : (kMergeRow ? a[i] : d[i]);
      } else {
        d[i] = r;
      }
    }
  };
  m != nullptr ? run(std::true_type{}) : run(std::false_type{});
}

/// Rows whose destination is a mask register (kFpToMask, kMaskLogic).
template <Kind K, typename F, typename T>
void stream_bits(OpArgs& x) {
  const auto s = scalar<K, T>(x);
  const VInstr& in = x.in;
  const std::uint64_t n = x.n;
  using Src = std::conditional_t<K == kMaskLogic, std::uint8_t, T>;
  const auto source = [&](bool reads, unsigned reg, std::vector<std::uint8_t>& stage) {
    if (!reads) return static_cast<const Src*>(nullptr);
    if constexpr (K == kMaskLogic) {
      stage.resize(n);
      x.vrf.read_mask_stream(reg, n, stage.data());
      return static_cast<const Src*>(stage.data());
    } else {
      return reinterpret_cast<const Src*>(x.vrf.packed_read_span(reg, n, sizeof(T)));
    }
  };
  const Src* a = source(x.spec.reads_vs2, in.vs2, x.buf.a);
  const Src* b = source(x.spec.reads_vs1, in.vs1, x.buf.b);
  if (b == nullptr) b = a;
  const std::uint8_t* m = in.masked ? read_v0(x) : nullptr;
  std::vector<std::uint8_t>& bits = x.buf.bits;
  bits.resize(n);
  if (m != nullptr) x.vrf.read_mask_stream(in.vd, n, bits.data());
  const F f{};
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool r = f(Elem<Val<K, T>, decltype(s)>{
        decode<K>(a[i]), decode<K>(b[i]), {}, s, i});
    if (m == nullptr || m[i] != 0) bits[i] = r ? 1 : 0;
  }
  x.vrf.write_mask_stream(in.vd, n, bits.data());
}

template <typename F, typename T>
void stream_fold(OpArgs& x) {
  const VInstr& in = x.in;
  const auto* a =
      reinterpret_cast<const T*>(x.vrf.packed_read_span(in.vs2, x.n, sizeof(T)));
  const std::uint8_t* m = in.masked ? read_v0(x) : nullptr;
  double acc = fp_in(static_cast<T>(x.vrf.read_elem(in.vs1, 0, sizeof(T))));
  const F f{};
  if (m == nullptr) {
    for (std::uint64_t i = 0; i < x.n; ++i) acc = f(acc, fp_in(a[i]));
  } else {
    for (std::uint64_t i = 0; i < x.n; ++i) {
      if (m[i] != 0) acc = f(acc, fp_in(a[i]));
    }
  }
  x.vrf.write_elem(in.vd, 0, sizeof(T), fp_result<T>(acc));
}

template <typename F, typename T>
void stream_slide(OpArgs& x) {
  const T s = scalar<kSlide, T>(x);
  const VInstr& in = x.in;
  const bool vf = x.spec.reads_scalar_acc_ok;
  const auto n = static_cast<std::int64_t>(x.n);
  // A slide is a shift, vd[i] = vs2[i + c], so its row is evaluated once;
  // the reference evaluates it per element and the op matrix compares.
  const std::int64_t c = F{}(0, slide_amount(x));
  const std::int64_t count = std::clamp<std::int64_t>(n + c, 0, slide_limit(x));
  // vs2 is staged: a slide reads elements other than the one it writes.
  x.buf.a.resize(static_cast<std::uint64_t>(count) * sizeof(T));
  if (count > 0) x.vrf.read_stream(in.vs2, count, sizeof(T), x.buf.a.data());
  const auto* src = reinterpret_cast<const T*>(x.buf.a.data());
  const std::uint8_t* m = in.masked ? read_v0(x) : nullptr;
  T* d = reinterpret_cast<T*>(
      x.vrf.packed_write_span(in.vd, x.n, sizeof(T), x.spec.reads_vd || in.masked));
  const auto active = [&](std::int64_t i) { return m == nullptr || m[i] != 0; };
  // [lo, hi) reads vs2; below lo the head is vacated, from hi the tail.
  const std::int64_t lo = std::clamp<std::int64_t>(-c, 0, n);
  const std::int64_t hi = std::clamp<std::int64_t>(count - c, lo, n);
  for (std::int64_t i = 0; i < lo; ++i) {
    if (vf && active(i)) d[i] = s;
  }
  if (m == nullptr && hi > lo) {
    std::memcpy(d + lo, src + lo + c, static_cast<std::size_t>(hi - lo) * sizeof(T));
  } else if (m != nullptr) {
    for (std::int64_t i = lo; i < hi; ++i) {
      if (m[i] != 0) d[i] = src[i + c];
    }
  }
  for (std::int64_t i = hi; i < n; ++i) {
    if (active(i)) d[i] = vf ? s : T{0};
  }
}

// ---- reference loop ---------------------------------------------------------
// The same rows, one element at a time through read_elem/write_elem/mask_bit.
// Every result is computed before any is written, so each source is read as
// it was before the op whatever the register overlap.

template <typename F, typename T>
void reference_fold(OpArgs& x) {
  Vrf& vrf = x.vrf;
  const VInstr& in = x.in;
  const auto word = [&](unsigned reg, std::uint64_t i) {
    return static_cast<T>(vrf.read_elem(reg, i, sizeof(T)));
  };
  double acc = fp_in(word(in.vs1, 0));
  const F f{};
  for (std::uint64_t i = 0; i < x.n; ++i) {
    if (!in.masked || vrf.mask_bit(0, i)) acc = f(acc, fp_in(word(in.vs2, i)));
  }
  vrf.write_elem(in.vd, 0, sizeof(T), fp_result<T>(acc));
}

template <Kind K, typename F, typename T>
void reference(OpArgs& x) {
  const auto s = scalar<K, T>(x);
  Vrf& vrf = x.vrf;
  const VInstr& in = x.in;
  const auto word = [&](unsigned reg, std::uint64_t i) {
    return static_cast<T>(vrf.read_elem(reg, i, sizeof(T)));
  };
  const auto active = [&](std::uint64_t i) { return !in.masked || vrf.mask_bit(0, i); };
  const F f{};
  const auto operand = [&](bool reads, unsigned reg, std::uint64_t i) -> Val<K, T> {
    if (!reads) return {};
    if constexpr (K == kMaskLogic) {
      return vrf.mask_bit(reg, i);
    } else {
      return decode<K>(word(reg, i));
    }
  };
  const auto elem = [&](std::uint64_t i) {
    return Elem<Val<K, T>, decltype(s)>{operand(x.spec.reads_vs2, in.vs2, i),
                                        operand(x.spec.reads_vs1, in.vs1, i),
                                        operand(x.spec.reads_vd, in.vd, i), s, i};
  };
  std::vector<std::pair<std::uint64_t, T>> writes;
  for (std::uint64_t i = 0; i < x.n; ++i) {
    if constexpr (K == kMerge) {
      writes.emplace_back(
          i, vrf.mask_bit(0, i) ? encode<K, T>(f(elem(i))) : word(in.vs2, i));
    } else if constexpr (K == kSlide) {
      if (!active(i)) continue;
      const std::int64_t j = f(static_cast<std::int64_t>(i), slide_amount(x));
      if (j >= 0 && j < slide_limit(x)) {
        writes.emplace_back(i, word(in.vs2, static_cast<std::uint64_t>(j)));
      } else if (x.spec.reads_scalar_acc_ok) {
        writes.emplace_back(i, s);
      } else if (j >= 0) {
        writes.emplace_back(i, T{0});
      }
    } else if (active(i)) {
      writes.emplace_back(i, encode<K, T>(f(elem(i))));
    }
  }
  for (const auto& [i, v] : writes) {
    if (x.spec.writes_mask) {
      vrf.set_mask_bit(in.vd, i, v != 0);
    } else {
      vrf.write_elem(in.vd, i, sizeof(T), v);
    }
  }
}

struct OpRow {
  Op op;
  void (*stream)(OpArgs&);
  void (*reference)(OpArgs&);
};

/// Instantiates both paths of one row for every legal SEW; each call
/// dispatches on the SEW once, never per element.
template <Kind K, typename F>
constexpr OpRow row(Op op, F /*element lambda*/) {
  return {op,
          [](OpArgs& x) {
            with_width<K>(x.ew, [&](auto word) {
              using T = decltype(word);
              if constexpr (K == kFold) {
                stream_fold<F, T>(x);
              } else if constexpr (K == kSlide) {
                stream_slide<F, T>(x);
              } else if constexpr (K == kFpToMask || K == kMaskLogic) {
                stream_bits<K, F, T>(x);
              } else {
                stream_elems<K, F, T>(x);
              }
            });
          },
          [](OpArgs& x) {
            with_width<K>(x.ew, [&](auto word) {
              if constexpr (K == kFold) {
                reference_fold<F, decltype(word)>(x);
              } else {
                reference<K, F, decltype(word)>(x);
              }
            });
          }};
}

// Each op's semantics, once. Operand shape (which of vs2/vs1/vd an op
// reads, .vf vs .vx scalar, element 0 only) comes from op_spec().
constexpr OpRow kRows[] = {
    // FP arithmetic: vd = f(vs2, vs1 or fs, vd)
    row<kFp>(Op::kVfaddVV, [](auto e) { return e.a + e.b; }),
    row<kFp>(Op::kVfaddVF, [](auto e) { return e.a + e.s; }),
    row<kFp>(Op::kVfsubVV, [](auto e) { return e.a - e.b; }),
    row<kFp>(Op::kVfsubVF, [](auto e) { return e.a - e.s; }),
    row<kFp>(Op::kVfrsubVF, [](auto e) { return e.s - e.a; }),
    row<kFp>(Op::kVfmulVV, [](auto e) { return e.a * e.b; }),
    row<kFp>(Op::kVfmulVF, [](auto e) { return e.a * e.s; }),
    row<kFp>(Op::kVfdivVV, [](auto e) { return e.a / e.b; }),
    row<kFp>(Op::kVfdivVF, [](auto e) { return e.a / e.s; }),
    row<kFp>(Op::kVfrdivVF, [](auto e) { return e.s / e.a; }),
    row<kFp>(Op::kVfmaccVV, [](auto e) { return std::fma(e.b, e.a, e.d); }),
    row<kFp>(Op::kVfmaccVF, [](auto e) { return std::fma(e.s, e.a, e.d); }),
    row<kFp>(Op::kVfnmsacVV, [](auto e) { return std::fma(-e.b, e.a, e.d); }),
    row<kFp>(Op::kVfnmsacVF, [](auto e) { return std::fma(-e.s, e.a, e.d); }),
    row<kFp>(Op::kVfmaddVF, [](auto e) { return std::fma(e.d, e.s, e.a); }),
    row<kFp>(Op::kVfmaddVV, [](auto e) { return std::fma(e.d, e.b, e.a); }),
    row<kFp>(Op::kVfmsacVF, [](auto e) { return std::fma(e.s, e.a, -e.d); }),
    row<kFp>(Op::kVfminVV, [](auto e) { return std::fmin(e.a, e.b); }),
    row<kFp>(Op::kVfminVF, [](auto e) { return std::fmin(e.a, e.s); }),
    row<kFp>(Op::kVfmaxVV, [](auto e) { return std::fmax(e.a, e.b); }),
    row<kFp>(Op::kVfmaxVF, [](auto e) { return std::fmax(e.a, e.s); }),
    row<kFp>(Op::kVfsqrtV, [](auto e) { return std::sqrt(e.a); }),
    // FP words as bits: sign injection, scalar moves, conversions between
    // signed SEW-bit integers and FP
    row<kFpBits>(Op::kVfsgnjVV, [](auto e) { return sign_inject(e.a, e.b); }),
    row<kFpBits>(Op::kVfsgnjnVV, [](auto e) { return sign_inject(e.a, ~e.b); }),
    row<kFpBits>(Op::kVfmvVF, [](auto e) { return e.s; }),
    row<kFpBits>(Op::kVfmvSF, [](auto e) { return e.s; }),
    row<kFpBits>(Op::kVfcvtXF, [](auto e) { return fp_to_int(e.a); }),
    row<kFpBits>(Op::kVfcvtFX, [](auto e) { return int_to_fp(e.a); }),
    // Integer arithmetic, wrapping at SEW
    row<kInt>(Op::kVaddVV, [](auto e) { return e.a + e.b; }),
    row<kInt>(Op::kVaddVX, [](auto e) { return e.a + e.s; }),
    row<kInt>(Op::kVsubVV, [](auto e) { return e.a - e.b; }),
    row<kInt>(Op::kVrsubVX, [](auto e) { return e.s - e.a; }),
    row<kInt>(Op::kVsllVX, [](auto e) { return wide(e.a) << e.s % e.kBits; }),
    row<kInt>(Op::kVsrlVX, [](auto e) { return e.a >> e.s % e.kBits; }),
    row<kInt>(Op::kVandVX, [](auto e) { return e.a & e.s; }),
    row<kInt>(Op::kVmulVV, [](auto e) { return wide(e.a) * e.b; }),
    row<kInt>(Op::kVmulVX, [](auto e) { return wide(e.a) * e.s; }),
    row<kInt>(Op::kVmaccVV, [](auto e) { return e.d + wide(e.b) * e.a; }),
    row<kInt>(Op::kVmaxVV, [](auto e) { return std::max(sgn(e.a), sgn(e.b)); }),
    row<kInt>(Op::kVminVV, [](auto e) { return std::min(sgn(e.a), sgn(e.b)); }),
    row<kInt>(Op::kVmvVX, [](auto e) { return e.s; }),
    row<kInt>(Op::kVmvVV, [](auto e) { return e.b; }),
    row<kInt>(Op::kVidV, [](auto e) { return e.i; }),
    // Merges: vd = v0 ? f : vs2
    row<kMerge>(Op::kVmergeVVM, [](auto e) { return e.b; }),
    row<kMerge>(Op::kVfmergeVFM, [](auto e) { return e.s; }),
    // Compares and mask logic into a mask register
    row<kFpToMask>(Op::kVmfeqVV, [](auto e) { return e.a == e.b; }),
    row<kFpToMask>(Op::kVmfltVV, [](auto e) { return e.a < e.b; }),
    row<kFpToMask>(Op::kVmfleVV, [](auto e) { return e.a <= e.b; }),
    row<kFpToMask>(Op::kVmfltVF, [](auto e) { return e.a < e.s; }),
    row<kFpToMask>(Op::kVmfleVF, [](auto e) { return e.a <= e.s; }),
    row<kFpToMask>(Op::kVmfgtVF, [](auto e) { return e.a > e.s; }),
    row<kFpToMask>(Op::kVmfgeVF, [](auto e) { return e.a >= e.s; }),
    row<kMaskLogic>(Op::kVmandMM, [](auto e) { return e.a && e.b; }),
    row<kMaskLogic>(Op::kVmorMM, [](auto e) { return e.a || e.b; }),
    row<kMaskLogic>(Op::kVmxorMM, [](auto e) { return e.a != e.b; }),
    row<kMaskLogic>(Op::kVmandnMM, [](auto e) { return e.a && !e.b; }),
    // Reductions: acc = f(acc, vs2[i]) from acc = vs1[0]
    row<kFold>(Op::kVfredusum, [](double acc, double v) { return acc + v; }),
    row<kFold>(Op::kVfredmax, [](double acc, double v) { return std::fmax(acc, v); }),
    row<kFold>(Op::kVfredmin, [](double acc, double v) { return std::fmin(acc, v); }),
    // Slides: the vs2 element j that lands in vd[i], for slide amount k
    row<kSlide>(Op::kVfslide1up, [](std::int64_t i, std::int64_t) { return i - 1; }),
    row<kSlide>(Op::kVfslide1down, [](std::int64_t i, std::int64_t) { return i + 1; }),
    row<kSlide>(Op::kVslideupVX, [](std::int64_t i, std::int64_t k) { return i - k; }),
    row<kSlide>(Op::kVslidedownVX, [](std::int64_t i, std::int64_t k) { return i + k; }),
};

constexpr auto kRowOf = [] {
  std::array<const OpRow*, kNumOps> by_op{};
  for (const OpRow& r : kRows) by_op[static_cast<std::size_t>(r.op)] = &r;
  return by_op;
}();
static_assert(std::ranges::count(kRowOf, nullptr) + std::size(kRows) == kNumOps,
              "an op has two rows");

}  // namespace

FunctionalEngine::FunctionalEngine(const MachineConfig& cfg, Vrf& vrf,
                                   MainMemory& mem)
    : cfg_(cfg), vrf_(vrf), mem_(mem) {}

bool FunctionalEngine::in_op_table(Op op) {
  return kRowOf[static_cast<std::size_t>(op)] != nullptr;
}

bool FunctionalEngine::active(const VInstr& in, std::uint64_t i) const {
  return !in.masked || vrf_.mask_bit(0, i);
}

bool FunctionalEngine::exec_row(const VInstr& in, bool reference_loop) {
  const OpSpec& spec = op_spec(in.op);  // validates the opcode
  const OpRow* r = kRowOf[static_cast<std::size_t>(in.op)];
  if (r == nullptr) return false;
  OpArgs x{vrf_, in, spec, ew_bytes(), spec.elem0_only ? 1 : vl_,
           vlmax_, scalar_of(in), scratch_};
  (reference_loop ? r->reference : r->stream)(x);
  return true;
}

void FunctionalEngine::exec(const VInstr& in) {
  if (in.op == Op::kVsetvli) {
    vtype_ = in.vtype;
    vlmax_ = vlmax(cfg_.effective_vlen(), vtype_);
    vl_ = vsetvl_result(cfg_.effective_vlen(), in.avl, in.vtype);
    return;
  }
  if (in.op == Op::kVfmvFS) {
    // Reads element 0 regardless of vl.
    with_width<kFp>(ew_bytes(), [&](auto word) {
      using T = decltype(word);
      scalar_acc_ = fp_in(static_cast<T>(vrf_.read_elem(in.vs2, 0, sizeof(T))));
    });
    return;
  }
  if (in.op == Op::kVcpopM || in.op == Op::kVfirstM) {
    exec_mask_population(in);  // handles vl == 0 (count 0 / index -1)
    return;
  }
  if (vl_ == 0 || exec_row(in, false)) return;

  const OpSpec& spec = op_spec(in.op);
  if (spec.reads_mem || spec.writes_mem) {
    exec_memory(in);
  } else if (spec.widens) {
    exec_widening(in);
  } else if (spec.is_gather) {
    exec_gather(in);
  } else {
    exec_mask_population(in);
  }
}

void FunctionalEngine::exec_reference(const VInstr& in) {
  if (vl_ == 0 || !exec_row(in, true)) exec(in);
}

void FunctionalEngine::exec_widening(const VInstr& in) {
  check(vtype_.sew == Sew::k32, "widening requires SEW=32");
  for (std::uint64_t i = 0; i < vl_; ++i) {
    if (!active(in, i)) continue;
    const double a = static_cast<double>(vrf_.read_f32(in.vs2, i));
    const double b = static_cast<double>(vrf_.read_f32(in.vs1, i));
    double result = 0.0;
    switch (in.op) {
      case Op::kVfwaddVV: result = a + b; break;
      case Op::kVfwsubVV: result = a - b; break;
      case Op::kVfwmulVV: result = a * b; break;
      case Op::kVfwmaccVV:
        result = std::fma(b, a, vrf_.read_f64(in.vd, i));
        break;
      default: fail("unhandled widening op");
    }
    vrf_.write_f64(in.vd, i, result);
  }
}

void FunctionalEngine::exec_gather(const VInstr& in) {
  const unsigned ew = ew_bytes();
  if (in.op == Op::kVrgatherVV) {
    for (std::uint64_t i = 0; i < vl_; ++i) {
      if (!active(in, i)) continue;
      const std::uint64_t idx = vrf_.read_elem(in.vs1, i, ew);
      vrf_.write_elem(in.vd, i, ew,
                      idx < vlmax_ ? vrf_.read_elem(in.vs2, idx, ew) : 0);
    }
    return;
  }
  // vcompress.vm: pack active elements; tail of vd is left undisturbed.
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < vl_; ++i) {
    if (!vrf_.mask_bit(in.vs1, i)) continue;
    vrf_.write_elem(in.vd, k++, ew, vrf_.read_elem(in.vs2, i, ew));
  }
}

void FunctionalEngine::exec_mask_population(const VInstr& in) {
  switch (in.op) {
    case Op::kVcpopM: {
      std::int64_t count = 0;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (vrf_.mask_bit(in.vs2, i) && active(in, i)) ++count;
      }
      scalar_iacc_ = count;
      scalar_acc_ = static_cast<double>(count);
      return;
    }
    case Op::kVfirstM: {
      std::int64_t first = -1;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (vrf_.mask_bit(in.vs2, i) && active(in, i)) {
          first = static_cast<std::int64_t>(i);
          break;
        }
      }
      scalar_iacc_ = first;
      scalar_acc_ = static_cast<double>(first);
      return;
    }
    case Op::kViotaM: {
      std::uint64_t count = 0;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (active(in, i)) vrf_.write_elem(in.vd, i, ew_bytes(), count);
        if (vrf_.mask_bit(in.vs2, i)) ++count;
      }
      return;
    }
    case Op::kVmsbfM:
    case Op::kVmsifM:
    case Op::kVmsofM: {
      bool seen = false;
      for (std::uint64_t i = 0; i < vl_; ++i) {
        const bool bit = vrf_.mask_bit(in.vs2, i);
        bool out = false;
        if (!seen) {
          if (bit) {
            seen = true;
            out = in.op != Op::kVmsbfM;  // msif/msof include the first
          } else {
            out = in.op != Op::kVmsofM;  // msbf/msif set before the first
          }
        }
        if (active(in, i)) vrf_.set_mask_bit(in.vd, i, out);
      }
      return;
    }
    default: fail("unhandled mask-population op");
  }
}

void FunctionalEngine::exec_memory(const VInstr& in) {
  const unsigned ew = ew_bytes();
  // Unit-stride, unmasked accesses (the overwhelmingly common case) move
  // as one bounds-checked stream between memory and the mapped VRF.
  if ((in.op == Op::kVle || in.op == Op::kVse) && !in.masked) {
    const std::uint64_t total = vl_ * ew;
    if (in.op == Op::kVle) {
      vrf_.write_stream(in.vd, vl_, ew, mem_.raw(in.addr, total));
    } else {
      vrf_.read_stream(in.vd, vl_, ew, mem_.raw(in.addr, total));
    }
    return;
  }
  if ((in.op == Op::kVlse || in.op == Op::kVsse) && !in.masked &&
      exec_memory_bulk_strided(in)) {
    return;
  }
  if ((in.op == Op::kVle || in.op == Op::kVse) && in.masked &&
      exec_memory_bulk_masked_unit(in)) {
    return;
  }
  const auto elem_addr = [&](std::uint64_t i) -> std::uint64_t {
    switch (in.op) {
      case Op::kVle:
      case Op::kVse: return in.addr + i * ew;
      case Op::kVlse:
      case Op::kVsse:
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(in.addr) +
                                          static_cast<std::int64_t>(i) * in.stride);
      case Op::kVluxei:
      case Op::kVsuxei: return in.addr + vrf_.read_elem(in.vs2, i, ew);
      default: fail("not a memory op");
    }
  };

  const bool is_load = op_spec(in.op).reads_mem;
  for (std::uint64_t i = 0; i < vl_; ++i) {
    if (!active(in, i)) continue;
    const std::uint64_t a = elem_addr(i);
    if (is_load) {
      std::uint64_t bits = 0;
      switch (ew) {
        case 1: bits = mem_.load<std::uint8_t>(a); break;
        case 2: bits = mem_.load<std::uint16_t>(a); break;
        case 4: bits = mem_.load<std::uint32_t>(a); break;
        case 8: bits = mem_.load<std::uint64_t>(a); break;
        default: fail("bad element width");
      }
      vrf_.write_elem(in.vd, i, ew, bits);
    } else {
      const std::uint64_t bits = vrf_.read_elem(in.vd, i, ew);
      switch (ew) {
        case 1: mem_.store<std::uint8_t>(a, static_cast<std::uint8_t>(bits)); break;
        case 2: mem_.store<std::uint16_t>(a, static_cast<std::uint16_t>(bits)); break;
        case 4: mem_.store<std::uint32_t>(a, static_cast<std::uint32_t>(bits)); break;
        case 8: mem_.store<std::uint64_t>(a, bits); break;
        default: fail("bad element width");
      }
    }
  }
}

bool FunctionalEngine::exec_memory_bulk_strided(const VInstr& in) {
  const unsigned ew = ew_bytes();
  const std::int64_t stride = in.stride;
  // Address math must agree with the per-element path (signed stride on an
  // unsigned base). Widen to 128 bits so huge strides cannot wrap; any
  // transfer that leaves [0, mem) falls back to the per-element loop,
  // which reports the out-of-bounds element exactly as before.
  if (in.addr > mem_.size()) return false;
  const __int128 first_a = static_cast<__int128>(in.addr);
  const __int128 last_a =
      first_a + static_cast<__int128>(vl_ - 1) * static_cast<__int128>(stride);
  const __int128 lo = stride < 0 ? last_a : first_a;
  const __int128 hi = (stride < 0 ? first_a : last_a) + ew;
  if (lo < 0 || hi > static_cast<__int128>(mem_.size())) return false;

  const std::uint64_t umin = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - umin;
  const bool is_load = in.op == Op::kVlse;
  buf_mem_.resize(vl_ * ew);
  std::uint8_t* buf = buf_mem_.data();

  // Fixed-width copies so the compiler lowers each to a plain load/store.
  const auto stream = [&]<unsigned kW>() {
    if (is_load) {
      const std::uint8_t* first = mem_.raw(umin, span) + (in.addr - umin);
      for (std::uint64_t i = 0; i < vl_; ++i) {
        std::memcpy(buf + i * kW, first + static_cast<std::int64_t>(i) * stride,
                    kW);
      }
      vrf_.write_stream(in.vd, vl_, kW, buf);
    } else {
      // Ascending element order keeps the architectural overlap semantics
      // (stride 0 or |stride| < ew: the later element wins).
      vrf_.read_stream(in.vd, vl_, kW, buf);
      std::uint8_t* first = mem_.raw(umin, span) + (in.addr - umin);
      for (std::uint64_t i = 0; i < vl_; ++i) {
        std::memcpy(first + static_cast<std::int64_t>(i) * stride, buf + i * kW,
                    kW);
      }
    }
  };
  switch (ew) {
    case 1: stream.template operator()<1>(); break;
    case 2: stream.template operator()<2>(); break;
    case 4: stream.template operator()<4>(); break;
    case 8: stream.template operator()<8>(); break;
    default: return false;
  }
  return true;
}

bool FunctionalEngine::exec_memory_bulk_masked_unit(const VInstr& in) {
  const unsigned ew = ew_bytes();
  const std::uint64_t total = vl_ * ew;
  // One bounds check for the whole range. Any out-of-bounds byte falls back
  // to the per-element loop, which reports the exact faulting active element
  // (a range whose out-of-bounds elements are all inactive also falls back —
  // that only costs speed, never correctness).
  if (in.addr > mem_.size() || total > mem_.size() - in.addr) return false;
  const bool is_load = in.op == Op::kVle;
  buf_mem_.resize(total);
  std::uint8_t* buf = buf_mem_.data();
  std::uint8_t* ram = mem_.raw(in.addr, total);

  // Fixed-width copies so the compiler lowers each to a plain load/store.
  const auto stream = [&]<unsigned kW>() {
    // Both directions route through the current vd stream: a masked load
    // merges into vd (inactive elements keep their old value), and a masked
    // store sources vd and touches only the active elements of memory.
    vrf_.read_stream(in.vd, vl_, kW, buf);
    if (is_load) {
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (vrf_.mask_bit(0, i)) std::memcpy(buf + i * kW, ram + i * kW, kW);
      }
      vrf_.write_stream(in.vd, vl_, kW, buf);
    } else {
      for (std::uint64_t i = 0; i < vl_; ++i) {
        if (vrf_.mask_bit(0, i)) std::memcpy(ram + i * kW, buf + i * kW, kW);
      }
    }
  };
  switch (ew) {
    case 1: stream.template operator()<1>(); break;
    case 2: stream.template operator()<2>(); break;
    case 4: stream.template operator()<4>(); break;
    case 8: stream.template operator()<8>(); break;
    default: return false;
  }
  return true;
}

}  // namespace araxl

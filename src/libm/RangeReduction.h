//===- libm/RangeReduction.h - Range reduction / output comp. --*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Range reduction and output compensation for the six elementary
/// functions, all in double (the representation H). These routines are
/// shared verbatim between the shipped implementations (src/libm/*.cpp)
/// and the polynomial generator (src/core): the generator infers reduced
/// intervals through the *same* code it later validates, which is what
/// makes the paper's correctness argument go through in the presence of
/// numerical error in reduction and compensation (Section 2.1).
///
/// Reductions (RLibm-32 style):
///   exp2 : x = n + j/16 + r (exact), r in [0, 2^-4)
///   exp  : k = round(x * 16/ln2), r = x - k*ln2/16 (Cody-Waite),
///          n = k >> 4, j = k & 15, |r| <~ ln2/32
///   exp10: k = round(x * 16*log2(10)), r = x - k*log10(2)/16, 10^x form
///   log2/log/log10: x = 2^e * m, m in [1,2); j = top 5 mantissa bits;
///          F = 1 + j/32; f = m - F (exact); t = f * (1/F) (table)
///
/// Compensations:
///   exp family: result = 2^n * (Exp2Table[j] * p)     (one rounding)
///   log2      : result = (e + Log2FTable[j]) + p      (two roundings)
///   log/log10 : result = fma(e, C, LogFTable[j]) + p  (two roundings)
///
//===----------------------------------------------------------------------===//

#ifndef RFP_LIBM_RANGEREDUCTION_H
#define RFP_LIBM_RANGEREDUCTION_H

#include "libm/Tables.h"
#include "support/ElemFunc.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace rfp {
namespace libm {

/// Context produced by range reduction for one input.
struct Reduction {
  bool PolyPath;  ///< When false, Special is the final H value.
  double Special; ///< H result for non-polynomial paths.
  double T;       ///< Reduced input handed to the polynomial.
  int N;          ///< Scale exponent (exp family) / input exponent (log).
  int J;          ///< Table index.
};

/// An H value that rounds to +inf / max-finite correctly in every target
/// format and mode once the true result exceeds 2^128.
inline constexpr double HugeResult = 0x1p200;
/// An H value in (0, 2^-150): correct for every target once the true
/// result is below the smallest FP34 subnormal 2^-151.
inline constexpr double TinyResult = 0x1p-160;
/// H values strictly between 1 and its FP34 neighbours: the correct result
/// for exp-family inputs so small that f(x) lands strictly between 1 and
/// 1 +- one FP34 ulp. A polynomial cannot produce them (1 + c1*x rounds
/// back to 1.0 in double for subnormal x), so the exp-family reductions
/// return them directly -- the same small-input branch the RLibm artifact
/// carries.
inline constexpr double OnePlusTiny = 0x1.0000000000001p+0;  // 1 + 2^-52
inline constexpr double OneMinusTiny = 0x1.fffffffffffffp-1; // 1 - 2^-53

/// Reduced-input domain of the polynomial for each function (used for
/// piecewise domain splitting; see pieceIndex).
inline constexpr double ReducedMinExp = -0x1.62e42fefa39efp-6; // -ln2/32
inline constexpr double ReducedMaxExp = 0x1.62e42fefa39efp-6;
inline constexpr double ReducedMinExp10 =
    -0x1.34413509f79ffp-7; // -log10(2)/32
inline constexpr double ReducedMaxExp10 = 0x1.34413509f79ffp-7;

/// Special-path thresholds of the exp-family reductions, named so the SIMD
/// batch kernels (libm/BatchKernelBody.h) and the scalar reducers below
/// compare against the exact same constants: the batch layer's bit-identity
/// invariant requires both sides to classify every input identically.
inline constexpr double ExpHugeThreshold = 0x1.62e42fefa39efp+6; // 128*ln2
inline constexpr double ExpTinyThreshold = -104.7; // < ln(2^-151)
inline constexpr double ExpSmallThreshold = 0x1p-27;
inline constexpr double Exp10HugeThreshold =
    0x1.34413509f79ffp+5; // 128*log10(2)
inline constexpr double Exp10TinyThreshold = -45.46; // < -151*log10(2)
inline constexpr double Exp10SmallThreshold = 0x1p-28;
inline constexpr double Exp2HugeThreshold = 128.0;
inline constexpr double Exp2TinyThreshold = -151.0;
inline constexpr double Exp2SmallThreshold = 0x1p-26;

/// 2^N as a double for N in the normal range (branch-free ldexp).
inline double pow2Double(int N) {
  uint64_t Bits = static_cast<uint64_t>(1023 + N) << 52;
  double R;
  std::memcpy(&R, &Bits, sizeof(R));
  return R;
}

/// Reduced domain as a constexpr value, so call sites with a compile-time
/// function id (the batch kernels) can fold it without odr-using any
/// runtime symbol from this header.
struct ReducedDomain {
  double TMin;
  double TMax;
};

constexpr ReducedDomain reducedDomainOf(ElemFunc F) {
  switch (F) {
  case ElemFunc::Exp2:
    return {0.0, 0x1p-4};
  case ElemFunc::Exp:
    return {ReducedMinExp, ReducedMaxExp};
  case ElemFunc::Exp10:
    return {ReducedMinExp10, ReducedMaxExp10};
  case ElemFunc::Log:
  case ElemFunc::Log2:
  case ElemFunc::Log10:
    return {0.0, 0x1p-5};
  }
  return {0.0, 1.0};
}

inline void reducedDomain(ElemFunc F, double &TMin, double &TMax) {
  ReducedDomain D = reducedDomainOf(F);
  TMin = D.TMin;
  TMax = D.TMax;
}

/// Maps a reduced input to its sub-domain for a piecewise polynomial.
/// The scale is computed as one value so constant call sites fold the
/// division away; for the power-of-two domain widths used here the result
/// is bit-identical to dividing by (TMax - TMin) directly, and the
/// generator and the shipped code share this exact function either way.
inline int pieceIndex(double T, double TMin, double TMax, int NumPieces) {
  if (NumPieces <= 1)
    return 0;
  double Scale = NumPieces / (TMax - TMin);
  int P = static_cast<int>((T - TMin) * Scale);
  if (P < 0)
    return 0;
  if (P >= NumPieces)
    return NumPieces - 1;
  return P;
}

inline Reduction reduceExp2(float X) {
  Reduction R{};
  double Xd = X;
  if (std::isnan(X)) {
    R.Special = std::numeric_limits<double>::quiet_NaN();
    return R;
  }
  if (std::isinf(X)) {
    // f(+inf) is exactly +inf in every rounding mode (not an overflow).
    R.Special = X > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    return R;
  }
  if (Xd >= Exp2HugeThreshold) {
    R.Special = HugeResult;
    return R;
  }
  if (Xd < Exp2TinyThreshold) {
    R.Special = TinyResult;
    return R;
  }
  if (std::fabs(Xd) < Exp2SmallThreshold) { // |2^x - 1| < one FP34 ulp of 1
    R.Special = Xd == 0.0 ? 1.0 : (Xd > 0.0 ? OnePlusTiny : OneMinusTiny);
    return R;
  }
  if (Xd == std::floor(Xd)) {
    // Integer input: 2^x is an exact power of two. The result's rounding
    // interval is a single point, which no rounded polynomial evaluation
    // (in particular the Knuth-adapted form) can be forced to hit.
    R.Special = pow2Double(static_cast<int>(Xd));
    return R;
  }
  // x = n + j/16 + r exactly: x*16 and k/16 are exact scalings and the
  // subtraction cancels to <= 24 significant bits.
  int K = static_cast<int>(std::floor(Xd * 16.0));
  R.PolyPath = true;
  R.T = Xd - K * 0x1p-4;
  R.N = K >> 4;
  R.J = K & 15;
  return R;
}

inline Reduction reduceExpKind(float X, double HugeThreshold,
                               double TinyThreshold, double SmallThreshold,
                               double SixteenOverLn, double CWHi,
                               double CWLo) {
  Reduction R{};
  double Xd = X;
  if (std::isnan(X)) {
    R.Special = std::numeric_limits<double>::quiet_NaN();
    return R;
  }
  if (std::isinf(X)) {
    // f(+inf) is exactly +inf in every rounding mode (not an overflow).
    R.Special = X > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    return R;
  }
  if (Xd >= HugeThreshold) {
    R.Special = HugeResult;
    return R;
  }
  if (Xd <= TinyThreshold) {
    R.Special = TinyResult;
    return R;
  }
  if (std::fabs(Xd) < SmallThreshold) { // |f(x) - 1| < one FP34 ulp of 1
    R.Special = Xd == 0.0 ? 1.0 : (Xd > 0.0 ? OnePlusTiny : OneMinusTiny);
    return R;
  }
  int K = static_cast<int>(std::llround(Xd * SixteenOverLn));
  R.PolyPath = true;
  // Cody-Waite: CWHi carries ~38 bits, so K*CWHi is exact (|K| < 2^12).
  R.T = (Xd - K * CWHi) - K * CWLo;
  R.N = K >> 4;
  R.J = K & 15;
  return R;
}

inline Reduction reduceExp(float X) {
  // e^x overflows every target above ln(2^128) and underflows below
  // ln(2^-151) ~ -104.67.
  return reduceExpKind(X, ExpHugeThreshold, ExpTinyThreshold,
                       ExpSmallThreshold, tables::SixteenByLn2,
                       tables::Ln2By16Hi, tables::Ln2By16Lo);
}

inline Reduction reduceExp10(float X) {
  // 10^x overflows above 128*log10(2) ~ 38.53 and underflows below
  // -151*log10(2) ~ -45.45.
  return reduceExpKind(X, Exp10HugeThreshold, Exp10TinyThreshold,
                       Exp10SmallThreshold, tables::SixteenLog2_10,
                       tables::Log10_2By16Hi, tables::Log10_2By16Lo);
}

inline Reduction reduceLogKind(float X) {
  Reduction R{};
  if (std::isnan(X)) {
    R.Special = std::numeric_limits<double>::quiet_NaN();
    return R;
  }
  if (X == 0.0f) {
    R.Special = -std::numeric_limits<double>::infinity();
    return R;
  }
  if (std::signbit(X)) {
    R.Special = std::numeric_limits<double>::quiet_NaN();
    return R;
  }
  if (std::isinf(X)) {
    R.Special = std::numeric_limits<double>::infinity();
    return R;
  }
  uint32_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  int E = static_cast<int>((Bits >> 23) & 0xff) - 127;
  uint32_t Mant = Bits & 0x7fffff;
  if (E == -127) {
    // Subnormal input: renormalize so the hidden bit lands at position 23.
    int Shift = __builtin_clz(Mant) - 8;
    Mant = (Mant << Shift) & 0x7fffff;
    E = -126 - Shift;
  }
  int J = static_cast<int>(Mant >> 18); // top 5 mantissa bits
  // m = 1 + Mant/2^23, F = 1 + J/2^5, f = m - F exactly in double.
  double M = 1.0 + Mant * 0x1p-23;
  double F = 1.0 + J * 0x1p-5;
  double Frac = M - F;
  R.PolyPath = true;
  R.T = Frac * tables::OneByFTable[J];
  R.N = E;
  R.J = J;
  return R;
}

/// Range reduction dispatcher. Inline so call sites with a constant
/// function id fold away the switch.
inline Reduction reduceInput(ElemFunc F, float X) {
  switch (F) {
  case ElemFunc::Exp:
    return reduceExp(X);
  case ElemFunc::Exp2:
    return reduceExp2(X);
  case ElemFunc::Exp10:
    return reduceExp10(X);
  case ElemFunc::Log:
  case ElemFunc::Log2:
  case ElemFunc::Log10: {
    Reduction R = reduceLogKind(X);
    // Exactly representable results have single-point rounding intervals
    // a rounded polynomial cannot hit: log2(2^e) = e, and log/log10(1) = 0.
    if (R.PolyPath && R.T == 0.0 && R.J == 0) {
      if (F == ElemFunc::Log2) {
        R.PolyPath = false;
        R.Special = static_cast<double>(R.N);
      } else if (R.N == 0) { // x == 1
        R.PolyPath = false;
        R.Special = 0.0;
      }
    }
    return R;
  }
  }
  __builtin_unreachable();
}

/// Output compensation: combines the polynomial value with the reduction
/// context into the final H (double) result.
inline double outputCompensate(ElemFunc F, double PolyVal,
                               const Reduction &R) {
  switch (F) {
  case ElemFunc::Exp:
  case ElemFunc::Exp2:
  case ElemFunc::Exp10: {
    // 2^n * (T2[j] * p): the scale by 2^n is exact; one rounding.
    double Scaled = tables::Exp2Table[R.J] * PolyVal;
    return Scaled * pow2Double(R.N);
  }
  case ElemFunc::Log2:
    // e + log2(F) is exact in the catastrophic-cancellation cases
    // (e = -1, j = 127) by Sterbenz, and has error << interval width
    // elsewhere; the generator absorbs it either way.
    return (static_cast<double>(R.N) + tables::Log2FTable[R.J]) + PolyVal;
  case ElemFunc::Log:
    return std::fma(static_cast<double>(R.N), tables::Ln2,
                    tables::LnFTable[R.J]) +
           PolyVal;
  case ElemFunc::Log10:
    return std::fma(static_cast<double>(R.N), tables::Log10_2,
                    tables::Log10FTable[R.J]) +
           PolyVal;
  }
  __builtin_unreachable();
}

} // namespace libm
} // namespace rfp

#endif // RFP_LIBM_RANGEREDUCTION_H

//===- fp/FPFormat.cpp - Parameterized IEEE-like FP formats ---------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fp/FPFormat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace rfp;

FPFormat::FPFormat(unsigned TotalBits, unsigned ExpBits)
    : NBits(TotalBits), EBits(ExpBits), MBits(TotalBits - 1 - ExpBits),
      Bias((1 << (ExpBits - 1)) - 1) {
  assert(ExpBits >= 2 && ExpBits <= 11 && "unsupported exponent width");
  assert(TotalBits >= ExpBits + 2 && "need at least one mantissa bit");
  assert(MBits <= 52 && "values must be exactly representable in double");
}

double FPFormat::maxFinite() const {
  return std::ldexp(static_cast<double>((1ull << precision()) - 1),
                    maxExp() - static_cast<int>(MBits));
}

double FPFormat::minSubnormal() const {
  return std::ldexp(1.0, minExp() - static_cast<int>(MBits));
}

double FPFormat::decode(uint64_t Encoding) const {
  assert(Encoding < encodingCount() && "encoding out of range");
  bool Negative = (Encoding >> (NBits - 1)) & 1;
  uint64_t Biased = (Encoding >> MBits) & ((1ull << EBits) - 1);
  uint64_t Mant = Encoding & ((1ull << MBits) - 1);
  double Mag;
  if (Biased == (1ull << EBits) - 1) {
    if (Mant != 0)
      return std::numeric_limits<double>::quiet_NaN();
    Mag = HUGE_VAL;
  } else if (Biased == 0) {
    Mag = std::ldexp(static_cast<double>(Mant), minExp() - static_cast<int>(MBits));
  } else {
    Mag = std::ldexp(static_cast<double>((1ull << MBits) | Mant),
                     static_cast<int>(Biased) - Bias - static_cast<int>(MBits));
  }
  return Negative ? -Mag : Mag;
}

bool FPFormat::isNaN(uint64_t Encoding) const {
  uint64_t Biased = (Encoding >> MBits) & ((1ull << EBits) - 1);
  return Biased == (1ull << EBits) - 1 && (Encoding & ((1ull << MBits) - 1));
}

bool FPFormat::isInf(uint64_t Encoding) const {
  uint64_t Biased = (Encoding >> MBits) & ((1ull << EBits) - 1);
  return Biased == (1ull << EBits) - 1 && !(Encoding & ((1ull << MBits) - 1));
}

uint64_t FPFormat::plusInf() const {
  return ((1ull << EBits) - 1) << MBits;
}

uint64_t FPFormat::minusInf() const {
  return plusInf() | (1ull << (NBits - 1));
}

uint64_t FPFormat::quietNaN() const {
  return plusInf() | (1ull << (MBits - 1));
}

uint64_t FPFormat::overflowResult(bool Negative, RoundingMode M) const {
  uint64_t Sign = Negative ? (1ull << (NBits - 1)) : 0;
  uint64_t MaxFiniteEnc = plusInf() - 1;
  switch (M) {
  case RoundingMode::NearestEven:
  case RoundingMode::NearestAway:
    return Sign | plusInf();
  case RoundingMode::TowardZero:
    return Sign | MaxFiniteEnc;
  case RoundingMode::Upward:
    return Negative ? (Sign | MaxFiniteEnc) : plusInf();
  case RoundingMode::Downward:
    return Negative ? minusInf() : MaxFiniteEnc;
  case RoundingMode::ToOdd:
    // The largest finite value has an all-ones mantissa, hence an odd
    // encoding; truncation already lands on an odd value.
    return Sign | MaxFiniteEnc;
  }
  return Sign | plusInf();
}

uint64_t FPFormat::roundCore(bool Negative, uint64_t TopBits, int64_t MsbExp,
                             bool ExtraSticky, RoundingMode M) const {
  assert((TopBits >> 63) & 1 && "TopBits must be left-aligned");
  int Prec = static_cast<int>(precision());

  // Magnitudes with the leading bit above the max exponent overflow no
  // matter how the low bits round.
  if (MsbExp > maxExp())
    return overflowResult(Negative, M);

  // Number of significant bits this format can keep for this magnitude.
  int64_t Keep = MsbExp >= minExp() ? Prec : Prec + (MsbExp - minExp());

  uint64_t Q;
  bool RoundBit, Sticky;
  if (Keep >= 1) {
    Q = TopBits >> (64 - Keep);
    RoundBit = (TopBits >> (63 - Keep)) & 1;
    Sticky = ExtraSticky ||
             (Keep + 1 < 64 && (TopBits << (Keep + 1)) != 0);
  } else if (Keep == 0) {
    // Leading bit sits exactly at the half-ulp position of the smallest
    // subnormal.
    Q = 0;
    RoundBit = true;
    Sticky = ExtraSticky || (TopBits << 1) != 0;
  } else {
    Q = 0;
    RoundBit = false;
    Sticky = true;
  }

  bool Inexact = RoundBit || Sticky;
  switch (M) {
  case RoundingMode::NearestEven:
    if (RoundBit && (Sticky || (Q & 1)))
      ++Q;
    break;
  case RoundingMode::NearestAway:
    if (RoundBit)
      ++Q;
    break;
  case RoundingMode::TowardZero:
    break;
  case RoundingMode::Upward:
    if (!Negative && Inexact)
      ++Q;
    break;
  case RoundingMode::Downward:
    if (Negative && Inexact)
      ++Q;
    break;
  case RoundingMode::ToOdd:
    if (Inexact)
      Q |= 1;
    break;
  }

  uint64_t Sign = Negative ? (1ull << (NBits - 1)) : 0;
  if (Q == 0)
    return Sign; // Signed zero.

  // Ulp exponent is fixed by the (pre-carry) leading-bit exponent.
  int64_t UlpExp = std::max<int64_t>(MsbExp, minExp()) - (Prec - 1);
  if (Q >> Prec) { // Mantissa carry: 2^Prec -> renormalize.
    Q >>= 1;
    ++UlpExp;
  }

  unsigned QBits = 64 - static_cast<unsigned>(__builtin_clzll(Q));
  if (QBits == static_cast<unsigned>(Prec)) {
    int64_t UnbiasedExp = UlpExp + Prec - 1;
    int64_t Biased = UnbiasedExp + Bias;
    if (Biased >= static_cast<int64_t>((1ull << EBits) - 1))
      return overflowResult(Negative, M);
    assert(Biased >= 1 && "normal value with subnormal exponent");
    return Sign | (static_cast<uint64_t>(Biased) << MBits) |
           (Q & ((1ull << MBits) - 1));
  }
  // Subnormal: biased exponent 0, mantissa Q.
  assert(UlpExp == minExp() - (Prec - 1) && "misaligned subnormal");
  return Sign | Q;
}

namespace {

/// Per-call constants of the double -> FP(n, E) rounding body.
struct DoubleRounder {
  int64_t MBits;
  int64_t Bias;
  int64_t MinExp;
  int64_t MaxExp;
  uint64_t SignBit;
  uint64_t Inf;
  uint64_t NaN;
};

/// Rounds one double with integer operations only; see DESIGN.md, "Output
/// rounding". |V| = Sig * 2^(E - 52) for normal and subnormal doubles
/// alike (subnormals have E = -1022 and no hidden bit).
template <RoundingMode M>
inline uint64_t roundBits(const DoubleRounder &R, double V) {
  constexpr uint64_t FracMask = (1ull << 52) - 1;
  constexpr uint64_t Half = 1ull << 63;
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  uint64_t Sign = B >> 63;
  uint64_t Frac = B & FracMask;
  int64_t BiasedE = static_cast<int64_t>((B >> 52) & 0x7ff);
  int64_t E = BiasedE - 1023 + (BiasedE == 0);
  // One bit below the significand keeps Half a real bit when no bit drops.
  uint64_t Wide = (Frac | static_cast<uint64_t>(BiasedE != 0) << 52) << 1;

  // Past the largest binade, go on as the largest finite significand plus
  // more than half an ulp: every mode then rounds to its overflow result.
  bool Over = E > R.MaxExp;
  Wide = Over ? (1ull << 54) - 1 : Wide;
  E = Over ? R.MaxExp : E;

  // The format's ulp sits MBits below max(E, MinExp); past 62 dropped bits
  // the value is below half an ulp anyway.
  int64_t Under = std::max<int64_t>(R.MinExp - E, 0);
  int64_t Shift = std::min<int64_t>(52 - R.MBits + Under, 62) + 1;
  uint64_t Q = Wide >> Shift;
  uint64_t Low = Wide << (64 - Shift); // Dropped bits, left-aligned.
  uint64_t Inexact = Low != 0;

  uint64_t Inc = 0;
  if constexpr (M == RoundingMode::NearestEven)
    Inc = (Low > Half) | ((Low == Half) & Q & 1);
  else if constexpr (M == RoundingMode::NearestAway)
    Inc = Low >= Half;
  else if constexpr (M == RoundingMode::Upward)
    Inc = Inexact & (Sign ^ 1);
  else if constexpr (M == RoundingMode::Downward)
    Inc = Inexact & Sign;
  else if constexpr (M == RoundingMode::ToOdd)
    Q |= Inexact;

  // Q holds the hidden bit of a normal result, so the exponent field is
  // one below the biased exponent; a mantissa carry bumps it by itself.
  uint64_t ExpField =
      static_cast<uint64_t>(std::max<int64_t>(E + R.Bias - 1, 0));
  uint64_t Mag = (ExpField << R.MBits) + Q + Inc;
  Mag = BiasedE == 0x7ff ? R.Inf : Mag;
  uint64_t Enc = ((0 - Sign) & R.SignBit) | Mag;
  return BiasedE == 0x7ff && Frac ? R.NaN : Enc;
}

template <RoundingMode M>
void roundLoop(const DoubleRounder &R, const double *In, uint64_t *Out,
               size_t N) {
  for (size_t I = 0; I < N; ++I)
    Out[I] = roundBits<M>(R, In[I]);
}

} // namespace

void FPFormat::roundDoubles(const double *In, uint64_t *Out, size_t N,
                            RoundingMode M) const {
  const DoubleRounder R{MBits,
                        Bias,
                        minExp(),
                        maxExp(),
                        1ull << (NBits - 1),
                        plusInf(),
                        quietNaN()};
  switch (M) {
  case RoundingMode::NearestEven:
    return roundLoop<RoundingMode::NearestEven>(R, In, Out, N);
  case RoundingMode::NearestAway:
    return roundLoop<RoundingMode::NearestAway>(R, In, Out, N);
  case RoundingMode::TowardZero:
    return roundLoop<RoundingMode::TowardZero>(R, In, Out, N);
  case RoundingMode::Upward:
    return roundLoop<RoundingMode::Upward>(R, In, Out, N);
  case RoundingMode::Downward:
    return roundLoop<RoundingMode::Downward>(R, In, Out, N);
  case RoundingMode::ToOdd:
    return roundLoop<RoundingMode::ToOdd>(R, In, Out, N);
  }
}

uint64_t FPFormat::roundDouble(double V, RoundingMode M) const {
  uint64_t Enc;
  roundDoubles(&V, &Enc, 1, M);
  return Enc;
}

uint64_t FPFormat::roundRational(const Rational &V, RoundingMode M) const {
  if (V.isZero())
    return 0;
  bool Negative = V.isNegative();
  BigInt A = V.numerator().isNegative() ? -V.numerator() : V.numerator();
  const BigInt &B = V.denominator();
  int64_t La = A.bitLength(), Lb = B.bitLength();
  // Make the quotient carry at least 66 significant bits.
  int64_t K = 66 - (La - Lb);
  BigInt Q, R;
  if (K >= 0)
    BigInt::divMod(A.shl(static_cast<unsigned>(K)), B, Q, R);
  else
    BigInt::divMod(A, B.shl(static_cast<unsigned>(-K)), Q, R);
  bool Sticky = !R.isZero();
  unsigned QBits = Q.bitLength();
  assert(QBits >= 66 && "quotient narrower than expected");
  unsigned Drop = QBits - 64;
  Sticky = Sticky || Q.anyBitBelow(Drop);
  BigInt Top = Q.shr(Drop);
  uint64_t TopBits = Top.toUint64();
  int64_t MsbExp = static_cast<int64_t>(QBits) - 1 - K;
  return roundCore(Negative, TopBits, MsbExp, Sticky, M);
}

bool FPFormat::isRepresentable(double V) const {
  if (std::isnan(V))
    return false;
  if (std::isinf(V))
    return true;
  return decode(roundDouble(V, RoundingMode::TowardZero)) == V;
}

double FPFormat::succValue(double V) const {
  assert(isRepresentable(V) && "succValue requires a representable value");
  if (V == 0.0)
    return minSubnormal();
  uint64_t Enc = roundDouble(V, RoundingMode::TowardZero);
  if (V > 0)
    return decode(Enc + 1);
  double R = decode(Enc - 1);
  return R == 0.0 ? 0.0 : R;
}

double FPFormat::predValue(double V) const {
  assert(isRepresentable(V) && "predValue requires a representable value");
  if (V == 0.0)
    return -minSubnormal();
  uint64_t Enc = roundDouble(V, RoundingMode::TowardZero);
  if (V > 0)
    return decode(Enc - 1);
  return decode(Enc + 1);
}

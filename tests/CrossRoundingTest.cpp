//===- tests/CrossRoundingTest.cpp - MPFloat vs FPFormat rounding ---------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// MPFloat (unbounded exponent) and FPFormat (IEEE semantics) implement
// correctly rounded conversion from exact rationals independently; inside
// a format's normal range they must agree bit for bit in every mode.
// Divergence would mean one of the two rounding cores is wrong -- this is
// the strongest internal consistency check the repository has short of
// MPFR itself. The double -> format array body (FPFormat::roundDoubles)
// is pinned here to give the same encodings under every fesetround mode.
//
// The MultiRound suite at the bottom pins the other rounding-environment
// invariant: the rfp:: public surface returns bit-identical results no
// matter what dynamic FP rounding mode the *caller* has installed with
// fesetround (RLibm-MultiRound's scenario). The raw cores do not carry
// this guarantee -- their double arithmetic follows the ambient mode --
// so the test exercises exactly the FE guard that rfp::evalH /
// rfp::evalBatchH add, at float32 boundary and special inputs for all six
// functions, scalar and batch.
//
//===----------------------------------------------------------------------===//

#include "fp/FPFormat.h"
#include "libm/rfp.h"
#include "mp/MPFloat.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

using namespace rfp;

namespace {

constexpr RoundingMode AllModes[6] = {
    RoundingMode::NearestEven, RoundingMode::NearestAway,
    RoundingMode::TowardZero,  RoundingMode::Upward,
    RoundingMode::Downward,    RoundingMode::ToOdd};

class CrossRoundingTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrossRoundingTest, AgreeInsideNormalRange) {
  unsigned TotalBits = GetParam();
  FPFormat Fmt(TotalBits, 8);
  unsigned Prec = Fmt.precision();
  std::mt19937_64 Rng(1000 + TotalBits);

  int Checked = 0;
  for (int T = 0; T < 20000 && Checked < 8000; ++T) {
    // Random rationals with ~90 bits of precision in the format's normal
    // exponent range.
    double Hi = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                           static_cast<int>(Rng() % 200) - 130);
    double Lo = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                           -200);
    if (!std::isfinite(Hi) || Hi == 0.0)
      continue;
    Rational V = Rational::fromDouble(Hi) + Rational::fromDouble(Lo);
    // Keep safely inside the normal range (MPFloat has no subnormals).
    double Mag = std::fabs(V.toDouble());
    if (Mag < std::ldexp(1.0, Fmt.minExp() + 2) ||
        Mag > std::ldexp(1.0, Fmt.maxExp() - 2))
      continue;
    ++Checked;

    for (RoundingMode M : AllModes) {
      double ViaMP = MPFloat::fromRational(V, Prec, M).toDouble();
      double ViaFmt = Fmt.decode(Fmt.roundRational(V, M));
      EXPECT_EQ(ViaMP, ViaFmt)
          << "bits=" << TotalBits << " mode=" << roundingModeName(M)
          << " value~" << V.toDouble();
    }
  }
  EXPECT_GE(Checked, 2000);
}

INSTANTIATE_TEST_SUITE_P(Widths, CrossRoundingTest,
                         ::testing::Values(10u, 14u, 16u, 19u, 24u, 32u,
                                           34u));

TEST(CrossRoundingTest, TieCasesAgree) {
  // Exact ties (value exactly halfway between representables) stress the
  // nearest-even / nearest-away split identically in both cores.
  FPFormat Fmt(16, 8); // bfloat16 layout: 8 bits of precision
  unsigned Prec = Fmt.precision();
  ASSERT_EQ(Prec, 8u);
  for (int K = 0; K < 200; ++K) {
    // v = (2m+1) * 2^(e - Prec - 1) with m in [2^(Prec-1), 2^Prec):
    // exactly between two Prec-bit mantissa values.
    int64_t M = 128 + (K * 7) % 127;
    int E = (K % 40) - 20;
    int Shift = static_cast<int>(Prec) + 1 - E;
    Rational V(BigInt(2 * M + 1), BigInt(1));
    if (Shift > 0)
      V = V / Rational(BigInt::pow2(static_cast<unsigned>(Shift)));
    else
      V = V * Rational(BigInt::pow2(static_cast<unsigned>(-Shift)));
    for (RoundingMode Md : AllModes) {
      double A = MPFloat::fromRational(V, Prec, Md).toDouble();
      double B = Fmt.decode(Fmt.roundRational(V, Md));
      EXPECT_EQ(A, B) << "tie k=" << K << " mode=" << roundingModeName(Md);
    }
  }
}

/// The array rounding body is integer-only: its encodings do not depend on
/// the dynamic FP rounding mode the caller has installed.
TEST(CrossRoundingTest, RoundDoublesIgnoresDynamicRoundingMode) {
  std::mt19937_64 Rng(77);
  std::vector<double> In;
  for (int T = 0; T < 4096; ++T)
    In.push_back(std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                            static_cast<int>(Rng() % 360) - 230));
  for (double X : {0.0, -0.0, 0x1p-149, 0x1.8p-150, 0x1p-1074, HUGE_VAL,
                   -HUGE_VAL, std::nan(""), 0x1.fffffefp127, -0x1.ffffff8p127})
    In.push_back(X);
  const int FeModes[4] = {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD,
                          FE_TOWARDZERO};
  for (FPFormat Fmt : {FPFormat::bfloat16(), FPFormat::float32(),
                       FPFormat::fp34(), FPFormat(24, 11)})
    for (RoundingMode M : AllModes) {
      std::vector<uint64_t> Ref(In.size()), Got(In.size());
      Fmt.roundDoubles(In.data(), Ref.data(), In.size(), M);
      for (int Fe : FeModes) {
        const int Saved = std::fegetround();
        ASSERT_EQ(std::fesetround(Fe), 0);
        Fmt.roundDoubles(In.data(), Got.data(), In.size(), M);
        std::fesetround(Saved);
        for (size_t I = 0; I < In.size(); ++I)
          ASSERT_EQ(Got[I], Ref[I])
              << "FP(" << Fmt.totalBits() << "," << Fmt.expBits() << ") "
              << roundingModeName(M) << " femode=" << Fe
              << " v=" << std::hexfloat << In[I];
      }
    }
}

//===----------------------------------------------------------------------===//
// MultiRound: rfp:: surface vs the caller's dynamic FP rounding mode
//===----------------------------------------------------------------------===//

/// Installs a dynamic rounding mode for the scope, restoring on exit.
struct FeModeScope {
  int Saved;
  explicit FeModeScope(int M) : Saved(std::fegetround()) {
    EXPECT_EQ(std::fesetround(M), 0);
  }
  ~FeModeScope() { std::fesetround(Saved); }
};

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, 8);
  return B;
}

/// float32 boundary and special inputs: zeros, subnormal edges, range
/// extremes, NaN/inf, and the overflow/underflow boundaries of the six
/// functions (exp ~88.72, exp2 128, exp10 ~38.53, plus log's pole at 0
/// and the x ~ 1 cancellation region). Out-of-domain inputs for the log
/// family are kept -- the special-case paths must be mode-independent
/// too.
const std::vector<float> &multiRoundInputs() {
  static const std::vector<float> In = [] {
    std::vector<float> V = {
        0.0f,      -0.0f,      1.0f,       -1.0f,     0.5f,      2.0f,
        0.1f,      10.0f,      -7.5f,      2.718282f, 0.6931472f,
        88.72283f, 88.72284f,  89.5f,      -87.33655f, -103.97208f,
        -104.0f,   -150.0f,    127.99999f, 128.0f,    -126.0f,   -149.5f,
        38.53183f, 38.53184f,  -37.92978f, -45.1f,    1e-39f,    -1e-39f,
    };
    V.push_back(std::numeric_limits<float>::infinity());
    V.push_back(-std::numeric_limits<float>::infinity());
    V.push_back(std::numeric_limits<float>::quiet_NaN());
    V.push_back(std::numeric_limits<float>::max());
    V.push_back(std::numeric_limits<float>::lowest());
    V.push_back(std::numeric_limits<float>::min());
    V.push_back(std::numeric_limits<float>::denorm_min());
    V.push_back(-std::numeric_limits<float>::denorm_min());
    V.push_back(std::nextafterf(1.0f, 0.0f));
    V.push_back(std::nextafterf(1.0f, 2.0f));
    return V;
  }();
  return In;
}

constexpr int DynamicModes[3] = {FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO};

TEST(MultiRoundTest, ScalarEvalIgnoresDynamicRoundingMode) {
  const std::vector<float> &In = multiRoundInputs();
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme S : AllEvalSchemes) {
      if (!available(F, S))
        continue;
      // Reference H under the default environment.
      std::vector<uint64_t> Ref(In.size());
      for (size_t I = 0; I < In.size(); ++I)
        Ref[I] = bitsOf(evalH(F, S, In[I]));
      for (int Mode : DynamicModes) {
        FeModeScope Fe(Mode);
        for (size_t I = 0; I < In.size(); ++I)
          EXPECT_EQ(bitsOf(evalH(F, S, In[I])), Ref[I])
              << elemFuncName(F) << "/" << evalSchemeName(S)
              << " x=" << In[I] << " femode=" << Mode;
      }
      // And the caller's mode survives the calls.
      FeModeScope Fe(FE_UPWARD);
      (void)evalH(F, S, 1.5f);
      EXPECT_EQ(std::fegetround(), FE_UPWARD);
    }
}

TEST(MultiRoundTest, BatchEvalIgnoresDynamicRoundingMode) {
  const std::vector<float> &In = multiRoundInputs();
  std::vector<double> Ref(In.size()), Got(In.size());
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme S : AllEvalSchemes) {
      if (!available(F, S))
        continue;
      evalBatchH(F, S, In.data(), Ref.data(), In.size());
      for (int Mode : DynamicModes) {
        FeModeScope Fe(Mode);
        evalBatchH(F, S, In.data(), Got.data(), In.size());
        for (size_t I = 0; I < In.size(); ++I)
          EXPECT_EQ(bitsOf(Got[I]), bitsOf(Ref[I]))
              << elemFuncName(F) << "/" << evalSchemeName(S)
              << " x=" << In[I] << " femode=" << Mode;
      }
    }
}

TEST(MultiRoundTest, RoundedEncodingsIgnoreDynamicRoundingMode) {
  // Full rfp::eval: the *encodings* -- what an application actually
  // consumes -- are identical under a changed environment, for every
  // target mode of a couple of representative formats.
  const std::vector<float> &In = multiRoundInputs();
  for (FPFormat Fmt : {FPFormat::bfloat16(), FPFormat::tensorfloat32(),
                       FPFormat::float32()})
    for (RoundingMode M : StandardRoundingModes) {
      VariantKey K{ElemFunc::Log2, EvalScheme::EstrinFMA, Fmt, M};
      std::vector<uint64_t> Ref(In.size());
      for (size_t I = 0; I < In.size(); ++I)
        Ref[I] = eval(K, In[I]).Enc;
      FeModeScope Fe(FE_DOWNWARD);
      for (size_t I = 0; I < In.size(); ++I)
        EXPECT_EQ(eval(K, In[I]).Enc, Ref[I])
            << variantKeyName(K) << " x=" << In[I];
    }
}

} // namespace

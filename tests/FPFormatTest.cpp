//===- tests/FPFormatTest.cpp - FP format and rounding tests --------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fp/FPFormat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

using namespace rfp;

namespace {

TEST(FPFormatTest, BasicParameters) {
  FPFormat F32 = FPFormat::float32();
  EXPECT_EQ(F32.totalBits(), 32u);
  EXPECT_EQ(F32.expBits(), 8u);
  EXPECT_EQ(F32.mantBits(), 23u);
  EXPECT_EQ(F32.precision(), 24u);
  EXPECT_EQ(F32.bias(), 127);
  EXPECT_EQ(F32.minExp(), -126);
  EXPECT_EQ(F32.maxExp(), 127);
  EXPECT_EQ(F32.maxFinite(), static_cast<double>(FLT_MAX));
  EXPECT_EQ(F32.minSubnormal(), 0x1p-149);

  FPFormat F34 = FPFormat::fp34();
  EXPECT_EQ(F34.precision(), 26u);
  EXPECT_EQ(F34.minSubnormal(), 0x1p-151);

  FPFormat BF16 = FPFormat::bfloat16();
  EXPECT_EQ(BF16.mantBits(), 7u);
  EXPECT_EQ(FPFormat::tensorfloat32().mantBits(), 10u);
}

TEST(FPFormatTest, DecodeSpecials) {
  FPFormat F = FPFormat::withBits(16); // FP(16,8) = bfloat16 layout
  EXPECT_TRUE(std::isinf(F.decode(F.plusInf())));
  EXPECT_GT(F.decode(F.plusInf()), 0.0);
  EXPECT_LT(F.decode(F.minusInf()), 0.0);
  EXPECT_TRUE(std::isnan(F.decode(F.quietNaN())));
  EXPECT_EQ(F.decode(0), 0.0);
  EXPECT_TRUE(std::signbit(F.decode(1ull << 15)));
}

TEST(FPFormatTest, Float32MatchesHardwareEncoding) {
  // Every decoded FP(32,8) encoding equals the float with the same bits.
  FPFormat F = FPFormat::float32();
  std::mt19937_64 Rng(1);
  for (int T = 0; T < 20000; ++T) {
    uint32_t Bits = static_cast<uint32_t>(Rng());
    float HW;
    std::memcpy(&HW, &Bits, sizeof(HW));
    double Mine = F.decode(Bits);
    if (std::isnan(HW)) {
      EXPECT_TRUE(std::isnan(Mine));
      continue;
    }
    EXPECT_EQ(Mine, static_cast<double>(HW)) << Bits;
  }
}

TEST(FPFormatTest, RoundNearestMatchesHardwareCast) {
  FPFormat F = FPFormat::float32();
  std::mt19937_64 Rng(2);
  for (int T = 0; T < 50000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 120) - 90);
    float HW = static_cast<float>(V);
    double Mine = F.decode(F.roundDouble(V, RoundingMode::NearestEven));
    if (std::isnan(HW))
      continue;
    EXPECT_EQ(Mine, static_cast<double>(HW)) << V;
  }
}

TEST(FPFormatTest, DirectedRoundingMatchesFesetround) {
  // Cross-check rz/ru/rd against the hardware double->float conversion
  // with the FP environment switched.
  FPFormat F = FPFormat::float32();
  struct ModePair {
    RoundingMode Mine;
    int Fe;
  } Modes[] = {{RoundingMode::TowardZero, FE_TOWARDZERO},
               {RoundingMode::Upward, FE_UPWARD},
               {RoundingMode::Downward, FE_DOWNWARD}};
  std::mt19937_64 Rng(3);
  for (const ModePair &M : Modes) {
    std::fesetround(M.Fe);
    for (int T = 0; T < 20000; ++T) {
      double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                            static_cast<int>(Rng() % 140) - 100);
      volatile float HW = static_cast<float>(V);
      double Mine = F.decode(F.roundDouble(V, M.Mine));
      EXPECT_EQ(Mine, static_cast<double>(HW))
          << V << " mode " << roundingModeName(M.Mine);
    }
    std::fesetround(FE_TONEAREST);
  }
}

TEST(FPFormatTest, RoundExactValuesIdentity) {
  // Rounding a representable value is the identity in every mode.
  FPFormat F = FPFormat::withBits(14);
  for (uint64_t Enc = 0; Enc < F.encodingCount(); ++Enc) {
    if (!F.isFinite(Enc))
      continue;
    double V = F.decode(Enc);
    for (RoundingMode M : StandardRoundingModes)
      EXPECT_EQ(F.decode(F.roundDouble(V, M)), V);
    EXPECT_EQ(F.decode(F.roundDouble(V, RoundingMode::ToOdd)), V);
  }
}

TEST(FPFormatTest, RoundToOddTargetsOddEncodings) {
  // Inexact finite roundings must land on odd encodings.
  FPFormat F = FPFormat::withBits(12);
  std::mt19937_64 Rng(4);
  for (int T = 0; T < 20000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 80) - 60);
    if (V == 0.0 || !std::isfinite(V))
      continue;
    uint64_t Enc = F.roundDouble(V, RoundingMode::ToOdd);
    if (F.isFinite(Enc) && F.decode(Enc) != V)
      EXPECT_TRUE(F.encodingIsOdd(Enc)) << V;
  }
}

/// The RLibm-All theorem (paper Section 2.2, Figure 5): rounding to
/// FP(n+2) with round-to-odd and then to any FP(k), 10 <= k <= n, under
/// any standard mode equals direct rounding.
class DoubleRoundingTest : public ::testing::TestWithParam<int> {};

TEST_P(DoubleRoundingTest, RoundToOddCommutesWithNarrowing) {
  int N = GetParam();
  FPFormat Wide(N + 2, 8);
  std::mt19937_64 Rng(100 + N);
  for (int T = 0; T < 40000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 90) - 70);
    if (!std::isfinite(V))
      continue;
    double RO = Wide.decode(Wide.roundDouble(V, RoundingMode::ToOdd));
    if (std::isinf(RO))
      continue;
    for (int K = 10; K <= N; K += 3) {
      FPFormat Narrow(static_cast<unsigned>(K), 8);
      for (RoundingMode M : StandardRoundingModes) {
        uint64_t Direct = Narrow.roundDouble(V, M);
        uint64_t Twice = Narrow.roundDouble(RO, M);
        EXPECT_EQ(Direct, Twice) << "n=" << N << " k=" << K << " v=" << V
                                 << " mode " << roundingModeName(M);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WideWidths, DoubleRoundingTest,
                         ::testing::Values(16, 20, 26, 32));

/// Counter-property (paper Figure 3): double rounding through nearest-even
/// (instead of round-to-odd) does NOT commute; failures must exist.
TEST(FPFormatTest, NearestEvenDoubleRoundingFails) {
  FPFormat Wide(18, 8), Narrow(16, 8);
  std::mt19937_64 Rng(6);
  int Failures = 0;
  for (int T = 0; T < 200000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 40) - 40);
    if (!std::isfinite(V))
      continue;
    double RN2 = Wide.decode(Wide.roundDouble(V, RoundingMode::NearestEven));
    if (std::isinf(RN2))
      continue;
    if (Narrow.roundDouble(V, RoundingMode::NearestEven) !=
        Narrow.roundDouble(RN2, RoundingMode::NearestEven))
      ++Failures;
  }
  EXPECT_GT(Failures, 0) << "double rounding through rn should misround";
}

TEST(FPFormatTest, SuccPredWalkCoversFormat) {
  FPFormat F = FPFormat::withBits(11);
  double V = -F.maxFinite();
  uint64_t Steps = 0;
  while (V < F.maxFinite() && Steps < F.encodingCount()) {
    double Next = F.succValue(V);
    EXPECT_GT(Next, V);
    EXPECT_EQ(F.predValue(Next), V) << V;
    V = Next;
    ++Steps;
  }
  EXPECT_EQ(V, F.maxFinite());
  EXPECT_GT(Steps, F.encodingCount() / 2);
}

constexpr RoundingMode AllModes[6] = {
    RoundingMode::NearestEven, RoundingMode::NearestAway,
    RoundingMode::TowardZero,  RoundingMode::Upward,
    RoundingMode::Downward,    RoundingMode::ToOdd};

double fromBits(uint64_t B) {
  double V;
  std::memcpy(&V, &B, sizeof(V));
  return V;
}

/// Finite nonzero doubles that stress rounding into \p F: random values
/// over and around its exponent range, exact ties at the round bit (and
/// their neighbours), half the smallest subnormal, maxFinite +- half an
/// ulp, and double subnormals. Both signs.
std::vector<double> differentialInputs(const FPFormat &F, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<double> V;
  auto addNear = [&](double X) {
    V.push_back(X);
    V.push_back(std::nextafter(X, 0.0));
    V.push_back(std::nextafter(X, HUGE_VAL));
  };
  const int Span = F.maxExp() - F.minExp() + static_cast<int>(F.mantBits());
  for (int T = 0; T < 300; ++T) {
    int E = static_cast<int>(Rng() % (Span + 8)) + F.minExp() -
            static_cast<int>(F.mantBits()) - 4;
    V.push_back(std::ldexp(1.0 + static_cast<double>(Rng() >> 12) * 0x1p-52,
                           E));
  }
  for (int T = 0; T < 200; ++T) {
    // Midpoint of two adjacent finite values: a tie at the round bit.
    uint64_t Enc = Rng() % (F.plusInf() - 1);
    double Lo = F.decode(Enc), Hi = F.decode(Enc + 1);
    addNear(Lo + (Hi - Lo) / 2);
  }
  double Ulp = std::ldexp(1.0, F.maxExp() - static_cast<int>(F.mantBits()));
  for (double X : {F.minSubnormal() / 2, F.minSubnormal(),
                   F.minSubnormal() * 1.5, F.maxFinite() + Ulp / 2,
                   F.maxFinite() - Ulp / 2, F.maxFinite() + Ulp,
                   F.maxFinite() * 2, DBL_MAX, DBL_MIN})
    addNear(X);
  for (int T = 0; T < 50; ++T)
    V.push_back(fromBits(1 + (Rng() & ((1ull << 52) - 2))));
  V.push_back(fromBits(1));
  // FP(n, 11) reaches the top of the double range: drop what overflowed.
  V.erase(std::remove_if(V.begin(), V.end(),
                         [](double X) { return !std::isfinite(X); }),
          V.end());
  size_t Positive = V.size();
  for (size_t I = 0; I < Positive; ++I)
    V.push_back(-V[I]);
  return V;
}

/// Differential suite: roundDouble against the exact rounding of the same
/// value as a Rational, for every FP(k, 8), a few FP(n, 11), all six modes.
TEST(FPFormatTest, RoundRationalAgreesWithRoundDouble) {
  std::vector<FPFormat> Formats;
  for (unsigned K = 10; K <= 34; ++K)
    Formats.push_back(FPFormat::withBits(K));
  for (unsigned N : {13u, 24u, 32u, 42u})
    Formats.emplace_back(N, 11);
  long Compared = 0;
  for (const FPFormat &F : Formats) {
    for (double V : differentialInputs(F, F.totalBits() * 16 + F.expBits())) {
      Rational R = Rational::fromDouble(V);
      for (RoundingMode M : AllModes) {
        ++Compared;
        ASSERT_EQ(F.roundDouble(V, M), F.roundRational(R, M))
            << "FP(" << F.totalBits() << "," << F.expBits() << ") "
            << roundingModeName(M) << " v=" << std::hexfloat << V;
      }
    }
    // Values a Rational cannot carry.
    const uint64_t SignBit = 1ull << (F.totalBits() - 1);
    const double NaNs[] = {std::nan(""), -std::nan(""),
                           fromBits(0x7ff0000000000001ull),
                           fromBits(0xfff8dead0000beefull)};
    for (RoundingMode M : AllModes) {
      EXPECT_EQ(F.roundDouble(0.0, M), 0u);
      EXPECT_EQ(F.roundDouble(-0.0, M), SignBit);
      EXPECT_EQ(F.roundDouble(HUGE_VAL, M), F.plusInf());
      EXPECT_EQ(F.roundDouble(-HUGE_VAL, M), F.minusInf());
      for (double N : NaNs)
        EXPECT_EQ(F.roundDouble(N, M), F.quietNaN());
    }
  }
  EXPECT_GT(Compared, 100000);
}

TEST(FPFormatTest, RoundDoublesMatchesRoundDouble) {
  std::mt19937_64 Rng(8);
  for (FPFormat F : {FPFormat::withBits(10), FPFormat::bfloat16(),
                     FPFormat::float32(), FPFormat::fp34(), FPFormat(42, 11)}) {
    std::vector<double> Pool = differentialInputs(F, 9);
    Pool.insert(Pool.end(), {0.0, -0.0, HUGE_VAL, -HUGE_VAL, std::nan("")});
    for (size_t Len : {0u, 1u, 7u, 513u}) {
      std::vector<double> In(Len);
      for (double &X : In)
        X = Pool[Rng() % Pool.size()];
      std::vector<uint64_t> Out(Len + 1, 0xabcd);
      for (RoundingMode M : AllModes) {
        F.roundDoubles(In.data(), Out.data(), Len, M);
        for (size_t I = 0; I < Len; ++I)
          ASSERT_EQ(Out[I], F.roundDouble(In[I], M))
              << "len " << Len << " i " << I << " mode "
              << roundingModeName(M);
        EXPECT_EQ(Out[Len], 0xabcdu) << "wrote past the end";
      }
    }
  }
}

TEST(FPFormatTest, RoundRationalBeyondDoublePrecision) {
  FPFormat F = FPFormat::withBits(16);
  // 1 + 2^-100 is not a double; it must round like a value strictly
  // greater than 1 (up for ru/ro, back to 1 for rn/rz/rd).
  Rational V = Rational(1) + Rational(BigInt(1), BigInt::pow2(100));
  EXPECT_EQ(F.decode(F.roundRational(V, RoundingMode::NearestEven)), 1.0);
  EXPECT_EQ(F.decode(F.roundRational(V, RoundingMode::TowardZero)), 1.0);
  EXPECT_EQ(F.decode(F.roundRational(V, RoundingMode::Downward)), 1.0);
  EXPECT_GT(F.decode(F.roundRational(V, RoundingMode::Upward)), 1.0);
  EXPECT_GT(F.decode(F.roundRational(V, RoundingMode::ToOdd)), 1.0);
}

TEST(FPFormatTest, OverflowPerMode) {
  FPFormat F = FPFormat::withBits(16);
  double Big = F.maxFinite() * 4;
  EXPECT_TRUE(F.isInf(F.roundDouble(Big, RoundingMode::NearestEven)));
  EXPECT_TRUE(F.isInf(F.roundDouble(Big, RoundingMode::NearestAway)));
  EXPECT_EQ(F.decode(F.roundDouble(Big, RoundingMode::TowardZero)),
            F.maxFinite());
  EXPECT_TRUE(F.isInf(F.roundDouble(Big, RoundingMode::Upward)));
  EXPECT_EQ(F.decode(F.roundDouble(Big, RoundingMode::Downward)),
            F.maxFinite());
  EXPECT_EQ(F.decode(F.roundDouble(-Big, RoundingMode::Upward)),
            -F.maxFinite());
  EXPECT_TRUE(F.isInf(F.roundDouble(-Big, RoundingMode::Downward)));
  // Round-to-odd saturates at the (odd-encoded) max-finite value.
  EXPECT_EQ(F.decode(F.roundDouble(Big, RoundingMode::ToOdd)), F.maxFinite());
}

TEST(FPFormatTest, UnderflowPerMode) {
  FPFormat F = FPFormat::withBits(16);
  double Tiny = F.minSubnormal() / 4;
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::NearestEven)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::TowardZero)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::Downward)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::Upward)),
            F.minSubnormal());
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::ToOdd)),
            F.minSubnormal());
  // Ties at half the smallest subnormal.
  double Half = F.minSubnormal() / 2;
  EXPECT_EQ(F.decode(F.roundDouble(Half, RoundingMode::NearestEven)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Half, RoundingMode::NearestAway)),
            F.minSubnormal());
}

TEST(FPFormatTest, SignedZeroPreserved) {
  FPFormat F = FPFormat::withBits(16);
  EXPECT_EQ(F.roundDouble(0.0, RoundingMode::NearestEven), 0u);
  EXPECT_EQ(F.roundDouble(-0.0, RoundingMode::NearestEven), 1ull << 15);
}

TEST(FPFormatTest, ExhaustiveRoundTripSmallFormat) {
  // decode -> roundDouble(rz) is the identity on every encoding of
  // FP(10,8) (modulo NaN canonicalization).
  FPFormat F = FPFormat::withBits(10);
  for (uint64_t Enc = 0; Enc < F.encodingCount(); ++Enc) {
    if (F.isNaN(Enc)) {
      EXPECT_TRUE(
          F.isNaN(F.roundDouble(F.decode(Enc), RoundingMode::TowardZero)));
      continue;
    }
    EXPECT_EQ(F.roundDouble(F.decode(Enc), RoundingMode::TowardZero), Enc);
  }
}

} // namespace

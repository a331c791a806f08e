//===- libm/BatchKernelsNEON.cpp - NEON (aarch64) batch kernels -----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// NEON (Advanced SIMD) kernels for the batch API on aarch64: the x86
// kernels' structure (the shared body in BatchKernelBody.h) at two double
// lanes, written out here because no aarch64 toolchain builds this
// project in CI to check a NEON traits struct for that body. NEON is
// baseline on aarch64, so there is no CPUID gate and no per-TU ISA flags;
// what this TU buys over the scalar loop is the elimination of
// per-element call overhead and the two-lane ILP of the reduction and
// polynomial pipelines. There are no gather instructions -- the per-piece
// coefficient and table fetches are two scalar loads folded back into a
// vector register (gather2 below), which is also how a hand-written
// aarch64 loop would compile.
//
// Bit-identity with the scalar cores is the same argument as the shared
// body's (BatchKernelBody.h): fallback lanes call the scalar core itself;
// vector lanes mirror the compiled operation sequence (every A + B*x is
// one fmla/fmls, IEEE per-lane semantics are width-invariant). One honest
// caveat: the mirrors
// -- in particular the Knuth kernels' FMA-contraction map, documented at
// knuthEvalV in BatchKernelBody.h -- were read off GCC's x86 output,
// and this project's CI cannot execute aarch64 code to re-check them. The
// dispatcher therefore always runs the *full* one-time parity probe on
// NEON (Batch.cpp, neonSet): every vector kernel is swept against the
// scalar core at set resolution and any mismatching slot is demoted to
// the scalar loop with a logged warning. A compiler whose scalar
// contraction choices differ costs throughput on the affected variants,
// never correctness.
//
// Like the x86 kernels, everything here is namespace-local with its
// own internal-linkage includes of the generated tables, bound as
// constant-expression template arguments so table-shape branches fold.
//
//===----------------------------------------------------------------------===//

#include "libm/BatchKernels.h"
#include "libm/Frame.h"
#include "libm/RangeReduction.h"

#include <arm_neon.h>

using namespace rfp;
using namespace rfp::libm;

namespace {

namespace exp_gen {
#include "libm/generated/ExpBatch.inc"
#include "libm/generated/ExpCoeffs.inc"
} // namespace exp_gen
namespace exp2_gen {
#include "libm/generated/Exp2Batch.inc"
#include "libm/generated/Exp2Coeffs.inc"
} // namespace exp2_gen
namespace exp10_gen {
#include "libm/generated/Exp10Batch.inc"
#include "libm/generated/Exp10Coeffs.inc"
} // namespace exp10_gen
namespace log_gen {
#include "libm/generated/LogBatch.inc"
#include "libm/generated/LogCoeffs.inc"
} // namespace log_gen
namespace log2_gen {
#include "libm/generated/Log2Batch.inc"
#include "libm/generated/Log2Coeffs.inc"
} // namespace log2_gen
namespace log10_gen {
#include "libm/generated/Log10Batch.inc"
#include "libm/generated/Log10Coeffs.inc"
} // namespace log10_gen

/// Per-function table lookup in EvalScheme order, resolvable in constant
/// expressions.
template <ElemFunc F> struct Gen;
#define RFP_GEN_TRAITS(Func, ns)                                               \
  template <> struct Gen<ElemFunc::Func> {                                     \
    static constexpr const SchemeTable *Scheme[4] = {                          \
        &ns::Horner, &ns::Knuth, &ns::Estrin, &ns::EstrinFMA};                 \
    static constexpr const BatchSchemeTable *Batch[4] = {                      \
        &ns::HornerBatch, &ns::KnuthBatch, &ns::EstrinBatch,                   \
        &ns::EstrinFMABatch};                                                  \
  };
RFP_GEN_TRAITS(Exp, exp_gen)
RFP_GEN_TRAITS(Exp2, exp2_gen)
RFP_GEN_TRAITS(Exp10, exp10_gen)
RFP_GEN_TRAITS(Log, log_gen)
RFP_GEN_TRAITS(Log2, log2_gen)
RFP_GEN_TRAITS(Log10, log10_gen)
#undef RFP_GEN_TRAITS

inline float64x2_t broadcast(double V) { return vdupq_n_f64(V); }

/// Widens a 2x32-bit lane mask to a 2x64-bit mask via sign extension.
inline uint64x2_t widenMask(uint32x2_t M) {
  return vreinterpretq_u64_s64(vmovl_s32(vreinterpret_s32_u32(M)));
}

/// Two-lane "gather": the NEON substitute for vgatherdpd.
inline float64x2_t gather2(const double *Tab, int32x2_t J) {
  double Buf[2] = {Tab[vget_lane_s32(J, 0)], Tab[vget_lane_s32(J, 1)]};
  return vld1q_f64(Buf);
}

inline int32x2_t gather2i(const int32_t *Tab, int32x2_t J) {
  int32_t Buf[2] = {Tab[vget_lane_s32(J, 0)], Tab[vget_lane_s32(J, 1)]};
  return vld1_s32(Buf);
}

/// int32 lanes -> double lanes (exact for every value we convert).
inline float64x2_t cvt_f64_s32(int32x2_t V) {
  return vcvtq_f64_s64(vmovl_s32(V));
}

/// Per-lane mask bits (lane L set when mask lane L is all-ones).
inline unsigned maskBits(uint64x2_t M) {
  return (vgetq_lane_u64(M, 0) ? 1u : 0u) | (vgetq_lane_u64(M, 1) ? 2u : 0u);
}

//===----------------------------------------------------------------------===//
// Coefficient access
//===----------------------------------------------------------------------===//

/// No permute fast path here: with two lanes the scalar-load gather2 is
/// already the cheapest piece-indexed fetch.
template <const BatchSchemeTable &B> struct CoeffSel {
  int32x2_t Piece;
};

template <const BatchSchemeTable &B>
inline CoeffSel<B> makeSel(int32x2_t Piece) {
  return CoeffSel<B>{Piece};
}

template <const BatchSchemeTable &B>
inline float64x2_t coeff(int I, const CoeffSel<B> &S) {
  const double *Row = B.CoeffsSoA + I * B.PiecePad;
  if constexpr (B.NumPieces == 1)
    return vdupq_n_f64(Row[0]);
  else
    return gather2(Row, S.Piece);
}

//===----------------------------------------------------------------------===//
// Polynomial evaluation (mirrors poly/EvalScheme.h as compiled)
//===----------------------------------------------------------------------===//

template <const BatchSchemeTable &B, unsigned Degree>
inline float64x2_t hornerNV(const CoeffSel<B> &Sel, float64x2_t X) {
  float64x2_t Acc = coeff<B>(Degree, Sel);
  for (unsigned I = Degree; I-- > 0;)
    Acc = vfmaq_f64(coeff<B>(I, Sel), Acc, X);
  return Acc;
}

template <const BatchSchemeTable &B, unsigned Degree, unsigned I = 0>
inline void loadCoeffsV(float64x2_t *V, const CoeffSel<B> &Sel) {
  if constexpr (I <= Degree) {
    V[I] = coeff<B>(static_cast<int>(I), Sel);
    loadCoeffsV<B, Degree, I + 1>(V, Sel);
  }
}

template <unsigned N, unsigned I = 0>
inline void estrinRoundV(float64x2_t *V, float64x2_t Y) {
  if constexpr (I <= N / 2) {
    if constexpr (2 * I + 1 <= N)
      V[I] = vfmaq_f64(V[2 * I], V[2 * I + 1], Y);
    else
      V[I] = V[2 * I];
    estrinRoundV<N, I + 1>(V, Y);
  }
}

template <unsigned N>
inline void estrinLevelsV(float64x2_t *V, float64x2_t Y) {
  if constexpr (N >= 1) {
    estrinRoundV<N>(V, Y);
    estrinLevelsV<N / 2>(V, vmulq_f64(Y, Y));
  }
}

template <const BatchSchemeTable &B, unsigned Degree>
inline float64x2_t estrinFMANV(const CoeffSel<B> &Sel, float64x2_t X) {
  float64x2_t V[Degree + 1];
  loadCoeffsV<B, Degree>(V, Sel);
  estrinLevelsV<Degree>(V, X);
  return V[0];
}

template <EvalScheme S, const BatchSchemeTable &B, unsigned Degree>
inline float64x2_t evalDegree(const CoeffSel<B> &Sel, float64x2_t X) {
  if constexpr (S == EvalScheme::Horner)
    return hornerNV<B, Degree>(Sel, X);
  else
    return estrinFMANV<B, Degree>(Sel, X);
}

template <const BatchSchemeTable &B> constexpr unsigned maxDegreeOf() {
  unsigned M = 0;
  for (int P = 0; P < B.NumPieces; ++P)
    if (static_cast<unsigned>(B.Degrees[P]) > M)
      M = static_cast<unsigned>(B.Degrees[P]);
  return M;
}

/// Same exact-padding proof as the shared body (see padIsExact in
/// BatchKernelBody.h).
template <const BatchSchemeTable &B> constexpr bool padIsExact() {
  unsigned M = maxDegreeOf<B>();
  for (int P = 0; P < B.NumPieces; ++P) {
    unsigned D = static_cast<unsigned>(B.Degrees[P]);
    if (B.CoeffsSoA[D * B.PiecePad + P] == 0.0)
      return false;
    for (unsigned I = D + 1; I <= M; ++I)
      if (B.CoeffsSoA[I * B.PiecePad + P] != 0.0)
        return false;
  }
  return true;
}

template <EvalScheme S, const BatchSchemeTable &B, int K>
inline void mixedDegreeStep(int32x2_t LaneDeg, const CoeffSel<B> &Sel,
                            float64x2_t X, float64x2_t &R) {
  if constexpr (K < B.NumDistinctDegrees) {
    constexpr int D = B.DistinctDegrees[K];
    uint64x2_t M = widenMask(vceq_s32(LaneDeg, vdup_n_s32(D)));
    if (maskBits(M))
      R = vbslq_f64(M, evalDegree<S, B, static_cast<unsigned>(D)>(Sel, X), R);
    mixedDegreeStep<S, B, K + 1>(LaneDeg, Sel, X, R);
  }
}

template <EvalScheme S, const BatchSchemeTable &B>
inline float64x2_t evalPolyV(int32x2_t Piece, float64x2_t X) {
  CoeffSel<B> Sel = makeSel<B>(Piece);
  if constexpr (B.UniformDegree != 0) {
    return evalDegree<S, B, static_cast<unsigned>(B.UniformDegree)>(Sel, X);
  } else if constexpr (padIsExact<B>()) {
    return evalDegree<S, B, maxDegreeOf<B>()>(Sel, X);
  } else {
    int32x2_t LaneDeg = gather2i(B.Degrees, Piece);
    float64x2_t R = vdupq_n_f64(0.0);
    mixedDegreeStep<S, B, 0>(LaneDeg, Sel, X, R);
    return R;
  }
}

//===----------------------------------------------------------------------===//
// Range reduction
//===----------------------------------------------------------------------===//

/// Reduction context for two lanes. On lanes where Ok is clear, T / N / J
/// hold sanitized garbage; the result lane is overwritten by the scalar
/// core.
struct VecRed {
  float64x2_t T;
  int32x2_t N;
  int32x2_t J;
  uint64x2_t Ok;
};

/// exp / exp10 (mirrors reduceExpKind; see BatchKernelBody.h for the
/// llround emulation argument -- vrndnq rounds to nearest-even,
/// std::llround away from zero, so exact-halfway lanes get a +-1
/// adjustment).
template <ElemFunc F>
inline VecRed reduceExpKindV(float64x2_t Xd) {
  constexpr bool IsExp = F == ElemFunc::Exp;
  constexpr double Huge = IsExp ? ExpHugeThreshold : Exp10HugeThreshold;
  constexpr double Tiny = IsExp ? ExpTinyThreshold : Exp10TinyThreshold;
  constexpr double Small = IsExp ? ExpSmallThreshold : Exp10SmallThreshold;
  constexpr double S16 =
      IsExp ? tables::SixteenByLn2 : tables::SixteenLog2_10;
  constexpr double CWHi = IsExp ? tables::Ln2By16Hi : tables::Log10_2By16Hi;
  constexpr double CWLo = IsExp ? tables::Ln2By16Lo : tables::Log10_2By16Lo;

  // Compares are false on NaN lanes, so NaN falls back implicitly.
  float64x2_t Abs = vabsq_f64(Xd);
  uint64x2_t Ok =
      vandq_u64(vandq_u64(vcltq_f64(Xd, broadcast(Huge)),
                          vcgtq_f64(Xd, broadcast(Tiny))),
                vcgeq_f64(Abs, broadcast(Small)));

  float64x2_t V = vmulq_f64(Xd, broadcast(S16));
  float64x2_t Kd = vrndnq_f64(V);
  float64x2_t Diff = vsubq_f64(V, Kd);
  float64x2_t Zero = vdupq_n_f64(0.0);
  float64x2_t One = broadcast(1.0);
  uint64x2_t Up = vandq_u64(vceqq_f64(Diff, broadcast(0.5)),
                            vcgtq_f64(V, Zero));
  uint64x2_t Down = vandq_u64(vceqq_f64(Diff, broadcast(-0.5)),
                              vcltq_f64(V, Zero));
  Kd = vaddq_f64(
      Kd, vreinterpretq_f64_u64(vandq_u64(Up, vreinterpretq_u64_f64(One))));
  Kd = vsubq_f64(
      Kd, vreinterpretq_f64_u64(vandq_u64(Down, vreinterpretq_u64_f64(One))));

  float64x2_t T1 = vfmsq_f64(Xd, Kd, broadcast(CWHi));
  int32x2_t K = vmovn_s64(vcvtq_s64_f64(Kd)); // exact: Kd integral, small

  VecRed R;
  R.T = vfmsq_f64(T1, Kd, broadcast(CWLo));
  R.N = vshr_n_s32(K, 4);
  R.J = vand_s32(K, vdup_n_s32(15)); // always in [0, 16)
  R.Ok = Ok;
  return R;
}

/// exp2 (mirrors reduceExp2): K = floor(Xd * 16) and T = Xd - K/16, both
/// exact; integer inputs (exact powers of two) fall back.
inline VecRed reduceExp2V(float64x2_t Xd) {
  float64x2_t Floor16 = vrndmq_f64(vmulq_f64(Xd, broadcast(16.0)));
  float64x2_t Abs = vabsq_f64(Xd);
  uint64x2_t Ok = vandq_u64(
      vandq_u64(vcltq_f64(Xd, broadcast(Exp2HugeThreshold)),
                vcgeq_f64(Xd, broadcast(Exp2TinyThreshold))),
      vbicq_u64(vcgeq_f64(Abs, broadcast(Exp2SmallThreshold)),
                vceqq_f64(Xd, vrndmq_f64(Xd))));
  int32x2_t K = vmovn_s64(vcvtq_s64_f64(Floor16)); // exact on ok lanes

  VecRed R;
  R.T = vfmsq_f64(Xd, Floor16, broadcast(0x1p-4)); // exact either way
  R.N = vshr_n_s32(K, 4);
  R.J = vand_s32(K, vdup_n_s32(15));
  R.Ok = Ok;
  return R;
}

/// log family (mirrors reduceLogKind) for positive normal inputs; see
/// BatchKernelBody.h for the exactness argument.
inline VecRed reduceLogKindV(int32x2_t Bits) {
  uint32x2_t Ok32 =
      vand_u32(vcgt_s32(Bits, vdup_n_s32(0x007fffff)),
               vcgt_s32(vdup_n_s32(0x7f800000), Bits));
  int32x2_t E = vsub_s32(
      vreinterpret_s32_u32(vshr_n_u32(vreinterpret_u32_s32(Bits), 23)),
      vdup_n_s32(127));
  int32x2_t Mant = vand_s32(Bits, vdup_n_s32(0x7fffff));
  int32x2_t J = vreinterpret_s32_u32(
      vshr_n_u32(vreinterpret_u32_s32(Mant), 18)); // top 5 bits, in [0, 32)
  float64x2_t M =
      vfmaq_f64(broadcast(1.0), cvt_f64_s32(Mant), broadcast(0x1p-23));
  float64x2_t Fv =
      vfmaq_f64(broadcast(1.0), cvt_f64_s32(J), broadcast(0x1p-5));
  float64x2_t Frac = vsubq_f64(M, Fv); // exact (Sterbenz)
  float64x2_t T = vmulq_f64(Frac, gather2(tables::OneByFTable, J));

  // Table-exact lanes (T == 0 and J == 0: x a power of two) take the
  // scalar path, which resolves the log2 / log / log10 special results.
  uint64x2_t Exact = vandq_u64(vceqq_f64(T, vdupq_n_f64(0.0)),
                               widenMask(vceq_s32(J, vdup_n_s32(0))));

  VecRed R;
  R.T = T;
  R.N = E;
  R.J = J;
  R.Ok = vbicq_u64(widenMask(Ok32), Exact);
  return R;
}

//===----------------------------------------------------------------------===//
// Piece dispatch and output compensation
//===----------------------------------------------------------------------===//

template <ElemFunc F>
inline int32x2_t pieceIndexV(float64x2_t T, int NumPieces) {
  if (NumPieces <= 1)
    return vdup_n_s32(0);
  constexpr ReducedDomain D = reducedDomainOf(F);
  double Scale = NumPieces / (D.TMax - D.TMin);
  float64x2_t P =
      vmulq_f64(vsubq_f64(T, broadcast(D.TMin)), broadcast(Scale));
  int32x2_t Pi = vmovn_s64(vcvtq_s64_f64(P)); // truncating; clamped below
  Pi = vmax_s32(Pi, vdup_n_s32(0));
  Pi = vmin_s32(Pi, vdup_n_s32(NumPieces - 1));
  return Pi;
}

/// outputCompensate as compiled; operation order identical to the shared
/// x86 body (and hence the scalar cores).
template <ElemFunc F>
inline float64x2_t compensateV(float64x2_t PolyVal, const VecRed &R) {
  if constexpr (isExpFamily(F)) {
    float64x2_t Scaled = vmulq_f64(gather2(tables::Exp2Table, R.J), PolyVal);
    float64x2_t Pow2 = vreinterpretq_f64_s64(
        vshlq_n_s64(vmovl_s32(vadd_s32(R.N, vdup_n_s32(1023))), 52));
    return vmulq_f64(Scaled, Pow2);
  } else if constexpr (F == ElemFunc::Log2) {
    return vaddq_f64(
        vaddq_f64(cvt_f64_s32(R.N), gather2(tables::Log2FTable, R.J)),
        PolyVal);
  } else {
    constexpr double C =
        F == ElemFunc::Log ? tables::Ln2 : tables::Log10_2;
    const double *Tab =
        F == ElemFunc::Log ? tables::LnFTable : tables::Log10FTable;
    return vaddq_f64(
        vfmaq_f64(gather2(Tab, R.J), cvt_f64_s32(R.N), broadcast(C)),
        PolyVal);
  }
}

//===----------------------------------------------------------------------===//
// Knuth adapted forms
//===----------------------------------------------------------------------===//

/// Adapted coefficient I per lane: see kcoeff in BatchKernelBody.h.
template <const SchemeTable &T>
inline float64x2_t kcoeff(int I, uint64x2_t PieceOneM) {
  if constexpr (T.NumPieces == 1) {
    (void)PieceOneM;
    return broadcast(T.Adapted[0][I]);
  } else {
    static_assert(T.NumPieces == 2, "vector Knuth handles <= 2 pieces");
    return vbslq_f64(PieceOneM, broadcast(T.Adapted[1][I]),
                     broadcast(T.Adapted[0][I]));
  }
}

template <const SchemeTable &T> constexpr unsigned knuthDegree() {
  for (int P = 1; P < T.NumPieces; ++P)
    if (T.Degrees[P] != T.Degrees[0])
      return 0;
  return T.Degrees[0];
}

/// evalKnuthOps as compiled, two lanes, with the x86-derived contraction
/// map documented at knuthEvalV in BatchKernelBody.h. If an aarch64
/// compiler contracts the scalar adapted forms differently, the full
/// parity probe demotes the affected kernel at resolution time.
template <ElemFunc F, const SchemeTable &T>
inline float64x2_t knuthEvalV(int32x2_t Piece, const VecRed &R) {
  constexpr unsigned D = knuthDegree<T>();
  static_assert(D == 4 || D == 5 || D == 6, "unsupported adapted degree");
  uint64x2_t PM = vdupq_n_u64(0);
  if constexpr (T.NumPieces > 1)
    PM = widenMask(vcgt_s32(Piece, vdup_n_s32(0)));
  (void)Piece;
  float64x2_t X = R.T;
  if constexpr (D == 4) {
    static_assert(isExpFamily(F), "degree-4 adapted form is exp only");
    float64x2_t Y =
        vfmaq_f64(kcoeff<T>(1, PM), vaddq_f64(X, kcoeff<T>(0, PM)), X);
    float64x2_t U = vfmaq_f64(
        kcoeff<T>(3, PM), vaddq_f64(vaddq_f64(X, Y), kcoeff<T>(2, PM)), Y);
    return compensateV<F>(vmulq_f64(U, kcoeff<T>(4, PM)), R);
  } else if constexpr (D == 5) {
    static_assert(isExpFamily(F), "degree-5 adapted form is exp2/exp10 only");
    float64x2_t T0 = vaddq_f64(X, kcoeff<T>(0, PM));
    float64x2_t Y = vmulq_f64(T0, T0);
    float64x2_t P =
        vfmaq_f64(kcoeff<T>(2, PM), vaddq_f64(Y, kcoeff<T>(1, PM)), Y);
    float64x2_t U =
        vfmaq_f64(kcoeff<T>(4, PM), P, vaddq_f64(X, kcoeff<T>(3, PM)));
    return compensateV<F>(vmulq_f64(U, kcoeff<T>(5, PM)), R);
  } else {
    static_assert(F == ElemFunc::Log || F == ElemFunc::Log2,
                  "degree-6 adapted form is log/log2 only");
    float64x2_t Z =
        vfmaq_f64(kcoeff<T>(1, PM), vaddq_f64(X, kcoeff<T>(0, PM)), X);
    float64x2_t W =
        vfmaq_f64(kcoeff<T>(3, PM), vaddq_f64(X, kcoeff<T>(2, PM)), Z);
    float64x2_t U = vfmaq_f64(
        kcoeff<T>(5, PM), vaddq_f64(vaddq_f64(Z, W), kcoeff<T>(4, PM)), W);
    float64x2_t Nd = cvt_f64_s32(R.N);
    float64x2_t Comp;
    if constexpr (F == ElemFunc::Log2)
      Comp = vaddq_f64(Nd, gather2(tables::Log2FTable, R.J));
    else
      Comp = vfmaq_f64(gather2(tables::LnFTable, R.J), Nd,
                       broadcast(tables::Ln2));
    return vfmaq_f64(Comp, U, kcoeff<T>(6, PM));
  }
}

//===----------------------------------------------------------------------===//
// The kernel frame
//===----------------------------------------------------------------------===//

/// Two lanes: reduce, match the generated special-case list, evaluate,
/// compensate, store -- then overwrite every fallback lane with the scalar
/// core's result.
template <ElemFunc F, EvalScheme S, const SchemeTable &T,
          const BatchSchemeTable &B>
inline void block2(double (*Core)(float), const float *In, double *H) {
  float32x2_t Xf = vld1_f32(In);
  int32x2_t XBits = vreinterpret_s32_f32(Xf);
  float64x2_t Xd = vcvt_f64_f32(Xf);

  VecRed R;
  if constexpr (F == ElemFunc::Exp2)
    R = reduceExp2V(Xd);
  else if constexpr (isExpFamily(F))
    R = reduceExpKindV<F>(Xd);
  else
    R = reduceLogKindV(XBits);

  uint32x2_t Spec = vdup_n_u32(0);
  for (int I = 0; I < T.NumSpecials; ++I)
    Spec = vorr_u32(
        Spec, vceq_s32(XBits, vdup_n_s32(static_cast<int>(T.Specials[I].Bits))));
  unsigned Fallback =
      (~maskBits(R.Ok) | maskBits(widenMask(Spec))) & 0x3u;

  int32x2_t Piece = pieceIndexV<F>(R.T, B.NumPieces);
  float64x2_t Res;
  if constexpr (S == EvalScheme::Knuth)
    Res = knuthEvalV<F, T>(Piece, R);
  else
    Res = compensateV<F>(evalPolyV<S, B>(Piece, R.T), R);
  vst1q_f64(H, Res);

  while (Fallback) {
    unsigned L = static_cast<unsigned>(__builtin_ctz(Fallback));
    Fallback &= Fallback - 1;
    H[L] = Core(In[L]);
  }
}

template <ElemFunc F, EvalScheme S>
void kernel(const float *In, double *H, size_t N) {
  constexpr const SchemeTable &T = *Gen<F>::Scheme[static_cast<int>(S)];
  constexpr const BatchSchemeTable &B = *Gen<F>::Batch[static_cast<int>(S)];
  double (*Core)(float) = detail::scalarCoreFor(F, S);
  size_t I = 0;
  for (; I + 2 <= N; I += 2)
    block2<F, S, T, B>(Core, In + I, H + I);
  for (; I < N; ++I)
    H[I] = Core(In[I]);
}

/// The Knuth slot: a vector kernel where the variant is generated.
template <ElemFunc F> constexpr BatchKernelFn knuthKernelFor() {
  if constexpr (Gen<F>::Scheme[static_cast<int>(EvalScheme::Knuth)]->Available)
    return kernel<F, EvalScheme::Knuth>;
  else
    return nullptr;
}

} // namespace

#define RFP_NEON_ROW(F)                                                        \
  {kernel<F, EvalScheme::Horner>, knuthKernelFor<F>(),                         \
   kernel<F, EvalScheme::Estrin>, kernel<F, EvalScheme::EstrinFMA>}

const BatchKernelFn rfp::libm::detail::NEONBatchKernels[6][4] = {
    RFP_NEON_ROW(ElemFunc::Exp),   RFP_NEON_ROW(ElemFunc::Exp2),
    RFP_NEON_ROW(ElemFunc::Exp10), RFP_NEON_ROW(ElemFunc::Log),
    RFP_NEON_ROW(ElemFunc::Log2),  RFP_NEON_ROW(ElemFunc::Log10),
};

#undef RFP_NEON_ROW

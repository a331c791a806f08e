//===- libm/BatchKernelBody.h - Width-generic x86 batch kernel -*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The x86 batch kernels, written once over a lane-ops traits type: all
// three stages of RangeReduction.h -- range reduction, table lookup,
// polynomial evaluation, output compensation -- across Ops::W double
// lanes, with a lane mask that routes every input off the pure polynomial
// path (NaN, inf, overflow/underflow thresholds, small inputs, table-exact
// cases, and the generated special-case list) through the per-call scalar
// core. BatchKernelsAVX2.cpp (4 lanes) and BatchKernelsAVX512.cpp (8
// lanes) each define one traits struct and instantiate their kernel table
// from this body; nothing else includes it.
//
// The non-negotiable invariant is that every lane's H is bit-identical to
// the scalar core's. The argument, lane by lane:
//
//  * Fallback lanes call the scalar core itself -- identical trivially.
//  * Vector lanes mirror the scalar code's *compiled* operation sequence,
//    including the FMA contractions GCC applies to the scalar sources at
//    -O2 -mfma -ffp-contract=fast (the project default): the Cody-Waite
//    subtractions compile to vfnmadd (confirmed by disassembly of the
//    shipped cores), and every Horner / Estrin / Estrin+FMA step
//    A + B*x is a single fused multiply-add. Where an operation's
//    contraction is value-neutral (the product is exact: K*CWHi, the
//    2^-23 / 2^-5 scalings in the log reduction, 2^n scaling) either
//    encoding gives the same bits; where it is not (K*CWLo, the
//    polynomial steps) this body calls the fused op explicitly.
//  * Knuth's adapted forms compile with *mixed* contraction that GCC
//    chooses per call site; knuthEvalV mirrors the compiled sequences read
//    off the shipped cores' disassembly (the contraction map is documented
//    there), and because that mirror is compiler-specific the dispatcher
//    re-proves it at set resolution with a one-time parity probe,
//    demoting a mismatching Knuth kernel back to the scalar loop. See
//    DESIGN.md, "Batch evaluation layer".
//  * The width is not part of the argument: IEEE semantics are per lane,
//    and each traits op is the same fused or plain operation at either
//    width (VEX or EVEX encoding of one instruction). A plain mul whose
//    only use is a plain add may still be fused by GCC, since
//    -ffp-contract=fast also applies to the intrinsics' vector
//    arithmetic; that choice is the compiler's at both widths alike, and
//    the parity probe and tests are what confirm it.
//
// BatchParityTest pins the invariant over strided full-bit-space sweeps
// and dense boundary windows at every compiled width; `bench_batch
// --verify` sweeps 2^28+ points per function.
//
// A traits struct Ops supplies only what differs between ISAs: the lane
// count W, the register types (VD: W doubles, VI: W int32 lanes, M: a
// W-lane mask), one static function per vector operation the body uses,
// named for it (add, fmadd, cmp<P>, gather, ...; an I suffix marks int32
// lanes, whose compares give all-ones lanes that toMask turns into an M),
// the 4-wide coefficient-row fetch (rowSel, fromRow), the live-lane load
// and store, and MaskedTail: whether the loop tail is one masked block or
// the scalar core per element.
//
// Each wide-ISA TU is the only one compiled with its flags
// (src/CMakeLists.txt), so nothing here odr-uses an inline function from
// the shared headers: the linker may keep either TU's copy of an inline
// symbol, and a copy compiled with AVX2 or AVX-512 enabled must never be
// reachable on a baseline machine. Everything in this header has internal
// linkage (anonymous namespace), so each including TU compiles its own
// copy; only constexpr *data* (the reduction tables) is shared.
//
// The coefficient tables are NOT fetched through the runtime accessors the
// scalar dispatcher uses: each kernel binds its generated tables as
// constant-expression template arguments (this header includes its own
// internal-linkage copies of the generated .inc data below), so piece
// counts, degrees, and the special-case list constant-fold and each
// kernel compiles to a straight-line vector loop. Routing the same tables
// through detail::batchTablesFor() instead leaves every degree switch and
// piece-count branch live at runtime and costs ~1.6x on the exp kernels.
//
//===----------------------------------------------------------------------===//

#ifndef RFP_LIBM_BATCHKERNELBODY_H
#define RFP_LIBM_BATCHKERNELBODY_H

#include "libm/BatchKernels.h"
#include "libm/Frame.h"
#include "libm/RangeReduction.h"

// GCC's gather intrinsics seed the masked-lane source with an undefined
// value, which -Wmaybe-uninitialized flags inside the intrinsic headers (a
// known false positive; every lane of our gathers is unmasked).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <immintrin.h>

using namespace rfp;
using namespace rfp::libm;

namespace {

// This TU's own copies of the generated tables (internal linkage; the
// bytes are identical to the ones Functions.cpp builds the scalar cores
// from -- both include the same generated files). Having them visible as
// constant expressions is what lets the kernels below take them as
// template arguments and fold every table-shape branch.
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

/// Forces inlining of the compile-time unrollers: GCC at -O2 may otherwise
/// keep a recursion step out of line, which turns the straight-line
/// evaluator back into calls with the lane array spilled to the stack.
#define RFP_UNROLL [[gnu::always_inline]] inline

template <class Ops> struct KernelBody {
  using VD = typename Ops::VD;
  using VI = typename Ops::VI;
  using M = typename Ops::M;

  template <int P> static M cmp(VD A, VD B) {
    return Ops::template cmp<P>(A, B);
  }

  //===--------------------------------------------------------------------===//
  // Coefficient access
  //===--------------------------------------------------------------------===//

  /// Per-block coefficient selector: the raw piece indices for the gather
  /// fallback, and the permute control for 4-wide SoA rows (every current
  /// multi-piece table: exp with 2 pieces, log10 with 4), computed once per
  /// block so each coefficient fetch is one row load plus one cross-lane
  /// permute instead of a gather -- the gathers, not the polynomial math,
  /// dominated the multi-piece kernels. Tables that use neither leave the
  /// unused field dead.
  struct CoeffSel {
    VI Piece;
    typename Ops::RowSel Row;
  };

  /// Coefficient I for each lane's piece: a broadcast when the table has a
  /// single piece, a row load + permute when the row is 4 wide, otherwise
  /// one gather from the SoA row. B is a constant expression, so the shape
  /// tests fold away.
  template <const BatchSchemeTable &B>
  RFP_UNROLL static VD coeff(int I, const CoeffSel &S) {
    const double *Row = B.CoeffsSoA + I * B.PiecePad;
    if constexpr (B.NumPieces == 1)
      return Ops::set1(Row[0]);
    else if constexpr (B.PiecePad == 4)
      return Ops::fromRow(Row, S.Row);
    else
      return Ops::gather(Row, S.Piece);
  }

  //===--------------------------------------------------------------------===//
  // Polynomial evaluation (mirrors poly/EvalScheme.h as compiled)
  //===--------------------------------------------------------------------===//

  /// Estrin's coefficient load and pair rounds, unrolled at compile time
  /// (see evalDegree).
  template <const BatchSchemeTable &B, unsigned Degree, unsigned I = 0>
  RFP_UNROLL static void loadCoeffsV(VD *V, const CoeffSel &Sel) {
    if constexpr (I <= Degree) {
      V[I] = coeff<B>(static_cast<int>(I), Sel);
      loadCoeffsV<B, Degree, I + 1>(V, Sel);
    }
  }

  /// One pair-combination round at width N: V[I] = V[2I+1]*Y + V[2I] for
  /// each pair (odd leftover copied down), exactly the generic loop's body.
  template <unsigned N, unsigned I = 0>
  RFP_UNROLL static void estrinRoundV(VD *V, VD Y) {
    if constexpr (I <= N / 2) {
      if constexpr (2 * I + 1 <= N)
        V[I] = Ops::fmadd(V[2 * I + 1], Y, V[2 * I]);
      else
        V[I] = V[2 * I];
      estrinRoundV<N, I + 1>(V, Y);
    }
  }

  template <unsigned N> RFP_UNROLL static void estrinLevelsV(VD *V, VD Y) {
    if constexpr (N >= 1) {
      estrinRoundV<N>(V, Y);
      estrinLevelsV<N / 2>(V, Ops::mul(Y, Y));
    }
  }

  /// The polynomial at one degree. Horner is hornerN as compiled: every
  /// Acc*X + C step is one fma. Estrin and Estrin+FMA are estrinFMAN /
  /// estrinN as compiled: identical operation order (the contraction of
  /// estrinN's A + B*y steps makes the two schemes compile to the same
  /// instruction sequence; their coefficient *tables* still differ, which
  /// is why both scheme slots exist). The recursion mirrors the scalar
  /// generic template's loop, whose order equals the hand-unrolled
  /// specializations -- but unrolls at compile time: GCC at -O2 keeps the
  /// runtime while/for form as an actual loop with V spilled to the stack,
  /// which costs the Estrin kernels ~40% throughput.
  template <EvalScheme S, const BatchSchemeTable &B, unsigned Degree>
  RFP_UNROLL static VD evalDegree(const CoeffSel &Sel, VD X) {
    if constexpr (S == EvalScheme::Horner) {
      VD Acc = coeff<B>(Degree, Sel);
      for (unsigned I = Degree; I-- > 0;)
        Acc = Ops::fmadd(Acc, X, coeff<B>(I, Sel));
      return Acc;
    } else {
      VD V[Degree + 1];
      loadCoeffsV<B, Degree>(V, Sel);
      estrinLevelsV<Degree>(V, X);
      return V[0];
    }
  }

  /// Largest per-piece degree in a mixed-degree table.
  template <const BatchSchemeTable &B> static constexpr unsigned maxDegreeOf() {
    unsigned Max = 0;
    for (int P = 0; P < B.NumPieces; ++P)
      if (static_cast<unsigned>(B.Degrees[P]) > Max)
        Max = static_cast<unsigned>(B.Degrees[P]);
    return Max;
  }

  /// Whether evaluating every piece at maxDegreeOf() is bit-exact: the SoA
  /// rows above a piece's own degree must be zero (so the padded steps are
  /// fma(0, y, c) == c and fma(0, y^k, V0) == V0), and each piece's leading
  /// coefficient must be nonzero (c + 0 == c requires c != 0 to preserve a
  /// negative-zero c; the polynomial value itself never lands on -0 over
  /// the reduced domains, which the dense --verify sweep confirms
  /// empirically).
  template <const BatchSchemeTable &B> static constexpr bool padIsExact() {
    unsigned Max = maxDegreeOf<B>();
    for (int P = 0; P < B.NumPieces; ++P) {
      unsigned D = static_cast<unsigned>(B.Degrees[P]);
      if (B.CoeffsSoA[D * B.PiecePad + P] == 0.0)
        return false;
      for (unsigned I = D + 1; I <= Max; ++I)
        if (B.CoeffsSoA[I * B.PiecePad + P] != 0.0)
          return false;
    }
    return true;
  }

  /// One blend step of the mixed-degree path: evaluate distinct degree K
  /// over all lanes (skipped when no lane has it) and blend it in.
  template <EvalScheme S, const BatchSchemeTable &B, int K>
  RFP_UNROLL static void mixedDegreeStep(VI LaneDeg, const CoeffSel &Sel,
                                         VD X, VD &R) {
    if constexpr (K < B.NumDistinctDegrees) {
      constexpr int D = B.DistinctDegrees[K];
      M Mask = Ops::toMask(Ops::eqI(LaneDeg, Ops::set1I(D)));
      if (Ops::bits(Mask))
        R = Ops::select(Mask, R,
                        evalDegree<S, B, static_cast<unsigned>(D)>(Sel, X));
      mixedDegreeStep<S, B, K + 1>(LaneDeg, Sel, X, R);
    }
  }

  /// Per-lane polynomial: single path for uniform-degree tables. For mixed
  /// degrees (log10: {4,4,4,3}), prefer evaluating every lane at the max
  /// degree through the zero-padded SoA rows -- one extra exact fma on the
  /// short-degree lanes instead of a lane-degree gather plus one blended
  /// evaluation per distinct degree. The blend path remains for tables
  /// whose padding is not provably exact. The table shape is a constant
  /// expression, so each case compiles to one unrolled evaluator with no
  /// degree dispatch.
  template <EvalScheme S, const BatchSchemeTable &B>
  static VD evalPolyV(VI Piece, VD X) {
    CoeffSel Sel = {Piece, Ops::rowSel(Piece)};
    if constexpr (B.UniformDegree != 0) {
      return evalDegree<S, B, static_cast<unsigned>(B.UniformDegree)>(Sel, X);
    } else if constexpr (padIsExact<B>()) {
      return evalDegree<S, B, maxDegreeOf<B>()>(Sel, X);
    } else {
      VI LaneDeg = Ops::gatherI(B.Degrees, Piece);
      VD R = Ops::set1(0.0);
      mixedDegreeStep<S, B, 0>(LaneDeg, Sel, X, R);
      return R;
    }
  }

  //===--------------------------------------------------------------------===//
  // Range reduction
  //===--------------------------------------------------------------------===//

  /// Reduction context for W lanes. On lanes where Ok is clear, T / N / J
  /// hold sanitized garbage (indexes masked into table range, values that
  /// cannot fault); the result lane is overwritten by the scalar core.
  struct VecRed {
    VD T;
    VI N;
    VI J;
    M Ok;
  };

  /// exp / exp10 (mirrors reduceExpKind): K = llround(Xd * S16), then the
  /// Cody-Waite pair (Xd - K*CWHi) - K*CWLo as two vfnmadd, exactly as the
  /// scalar cores compile. std::llround rounds halfway cases away from
  /// zero while the vector rounding rounds to nearest-even; the two differ
  /// exactly when V - round(V) == +-0.5 (that difference is exact: V and
  /// round(V) are within a factor of two of each other, Sterbenz), so those
  /// lanes get a +-1 adjustment (Kd + -1 is Kd - 1 exactly).
  template <ElemFunc F> static VecRed reduceExpKindV(VD Xd) {
    constexpr bool IsExp = F == ElemFunc::Exp;
    constexpr double Huge = IsExp ? ExpHugeThreshold : Exp10HugeThreshold;
    constexpr double Tiny = IsExp ? ExpTinyThreshold : Exp10TinyThreshold;
    constexpr double Small = IsExp ? ExpSmallThreshold : Exp10SmallThreshold;
    constexpr double S16 =
        IsExp ? tables::SixteenByLn2 : tables::SixteenLog2_10;
    constexpr double CWHi = IsExp ? tables::Ln2By16Hi : tables::Log10_2By16Hi;
    constexpr double CWLo = IsExp ? tables::Ln2By16Lo : tables::Log10_2By16Lo;

    // Ordered compares are false on NaN lanes, so NaN falls back implicitly.
    M Ok = Ops::mAnd(Ops::mAnd(cmp<_CMP_LT_OQ>(Xd, Ops::set1(Huge)),
                               cmp<_CMP_GT_OQ>(Xd, Ops::set1(Tiny))),
                     cmp<_CMP_GE_OQ>(Ops::abs(Xd), Ops::set1(Small)));

    VD V = Ops::mul(Xd, Ops::set1(S16));
    VD Kd = Ops::roundNearest(V);
    VD Diff = Ops::sub(V, Kd);
    VD Zero = Ops::set1(0.0);
    M Up = Ops::mAnd(cmp<_CMP_EQ_OQ>(Diff, Ops::set1(0.5)),
                     cmp<_CMP_GT_OQ>(V, Zero));
    M Down = Ops::mAnd(cmp<_CMP_EQ_OQ>(Diff, Ops::set1(-0.5)),
                       cmp<_CMP_LT_OQ>(V, Zero));
    Kd = Ops::addWhere(Kd, Up, Ops::set1(1.0));
    Kd = Ops::addWhere(Kd, Down, Ops::set1(-1.0));

    VD T1 = Ops::fnmadd(Kd, Ops::set1(CWHi), Xd);
    VI K = Ops::cvttI(Kd); // exact: Kd integral, |K| < 2^12 on ok lanes
    return {.T = Ops::fnmadd(Kd, Ops::set1(CWLo), T1),
            .N = Ops::template srai<4>(K),
            .J = Ops::andI(K, Ops::set1I(15)), // always in [0, 16)
            .Ok = Ok};
  }

  /// exp2 (mirrors reduceExp2): K = floor(Xd * 16) and T = Xd - K/16, both
  /// exact; integer inputs (exact powers of two) fall back.
  static VecRed reduceExp2V(VD Xd) {
    VD Floor16 = Ops::floor(Ops::mul(Xd, Ops::set1(16.0)));
    M Ok = Ops::mAnd(
        Ops::mAnd(cmp<_CMP_LT_OQ>(Xd, Ops::set1(Exp2HugeThreshold)),
                  cmp<_CMP_GE_OQ>(Xd, Ops::set1(Exp2TinyThreshold))),
        Ops::mAnd(cmp<_CMP_GE_OQ>(Ops::abs(Xd), Ops::set1(Exp2SmallThreshold)),
                  cmp<_CMP_NEQ_OQ>(Xd, Ops::floor(Xd))));
    VI K = Ops::cvttI(Floor16); // exact on ok lanes (|16x| < 2448)
    return {.T = Ops::fnmadd(Floor16, Ops::set1(0x1p-4), Xd), // exact
            .N = Ops::template srai<4>(K),
            .J = Ops::andI(K, Ops::set1I(15)),
            .Ok = Ok};
  }

  /// log family (mirrors reduceLogKind) for positive *normal* inputs; zero,
  /// negatives, NaN, inf, and subnormals (the clz renormalization does not
  /// vectorize cheaply) fall back. All operations are exact except the
  /// final Frac * OneByFTable[J] product, a single rounding both sides
  /// share.
  static VecRed reduceLogKindV(VI Bits) {
    // Positive normals: 0x00800000 <= bits < 0x7F800000 as signed compares.
    VI Ok32 = Ops::andI(Ops::gtI(Bits, Ops::set1I(0x007fffff)),
                        Ops::gtI(Ops::set1I(0x7f800000), Bits));
    VI E = Ops::addI(Ops::template srli<23>(Bits), Ops::set1I(-127));
    VI Mant = Ops::andI(Bits, Ops::set1I(0x7fffff));
    VI J = Ops::template srli<18>(Mant); // top 5 mantissa bits, in [0, 32)
    // M = 1 + Mant*2^-23 and F = 1 + J*2^-5: the products and sums are
    // exact, so mul+add equals the scalar's (contracted or not) sequence
    // bit for bit.
    VD Mv = Ops::fmadd(Ops::toD(Mant), Ops::set1(0x1p-23), Ops::set1(1.0));
    VD Fv = Ops::fmadd(Ops::toD(J), Ops::set1(0x1p-5), Ops::set1(1.0));
    VD Frac = Ops::sub(Mv, Fv); // exact (Sterbenz)
    VD T = Ops::mul(Frac, Ops::gather(tables::OneByFTable, J));

    // Table-exact lanes (T == 0 and J == 0: x a power of two) take the
    // scalar path, which resolves the log2 / log / log10 special results.
    M Exact = Ops::mAnd(cmp<_CMP_EQ_OQ>(T, Ops::set1(0.0)),
                        Ops::toMask(Ops::eqI(J, Ops::set1I(0))));
    return {.T = T, .N = E, .J = J,
            .Ok = Ops::mAndNot(Exact, Ops::toMask(Ok32))};
  }

  //===--------------------------------------------------------------------===//
  // Piece dispatch and output compensation
  //===--------------------------------------------------------------------===//

  /// pieceIndex as compiled: the (T - TMin) * Scale product feeds a
  /// truncating convert (no contraction is possible: sub feeds mul), then
  /// the scalar int clamp becomes max/min against the piece range. Lanes
  /// outside the reduced domain (fallback garbage) clamp into range and
  /// gather valid, unused data.
  template <ElemFunc F> static VI pieceIndexV(VD T, int NumPieces) {
    if (NumPieces <= 1)
      return Ops::set1I(0);
    constexpr ReducedDomain D = reducedDomainOf(F);
    double Scale = NumPieces / (D.TMax - D.TMin);
    VD P = Ops::mul(Ops::sub(T, Ops::set1(D.TMin)), Ops::set1(Scale));
    VI Pi = Ops::cvttI(P); // NaN/overflow -> INT_MIN, clamped
    Pi = Ops::maxI(Pi, Ops::set1I(0));
    return Ops::minI(Pi, Ops::set1I(NumPieces - 1));
  }

  /// outputCompensate as compiled. exp family: two plain multiplies (2^n
  /// via exponent-field construction). log2: two plain adds. log/log10:
  /// the scalar std::fma is a single vfmadd, mirrored, then one plain add.
  template <ElemFunc F> static VD compensateV(VD PolyVal, const VecRed &R) {
    if constexpr (isExpFamily(F)) {
      VD Scaled = Ops::mul(Ops::gather(tables::Exp2Table, R.J), PolyVal);
      return Ops::mul(Scaled,
                      Ops::pow2(Ops::addI(R.N, Ops::set1I(1023))));
    } else if constexpr (F == ElemFunc::Log2) {
      return Ops::add(
          Ops::add(Ops::toD(R.N), Ops::gather(tables::Log2FTable, R.J)),
          PolyVal);
    } else {
      constexpr double C = F == ElemFunc::Log ? tables::Ln2 : tables::Log10_2;
      const double *Tab =
          F == ElemFunc::Log ? tables::LnFTable : tables::Log10FTable;
      return Ops::add(Ops::fmadd(Ops::toD(R.N), Ops::set1(C),
                                 Ops::gather(Tab, R.J)),
                      PolyVal);
    }
  }

  //===--------------------------------------------------------------------===//
  // Knuth adapted forms
  //===--------------------------------------------------------------------===//

  /// Adapted coefficient I for each lane's piece: a broadcast for the
  /// single-piece tables, a two-broadcast blend keyed on the piece mask for
  /// exp (the only multi-piece Knuth form; both adapted rows are constant
  /// expressions, so each blend is two folded constants and one blend).
  template <const SchemeTable &T> static VD kcoeff(int I, M PieceOne) {
    if constexpr (T.NumPieces == 1) {
      (void)PieceOne;
      return Ops::set1(T.Adapted[0][I]);
    } else {
      static_assert(T.NumPieces == 2, "vector Knuth handles <= 2 pieces");
      return Ops::select(PieceOne, Ops::set1(T.Adapted[0][I]),
                         Ops::set1(T.Adapted[1][I]));
    }
  }

  /// The adapted degree, uniform across pieces (0 would mean mixed degrees,
  /// which no generated Knuth table has; static_asserted at the use site).
  template <const SchemeTable &T> static constexpr unsigned knuthDegree() {
    for (int P = 1; P < T.NumPieces; ++P)
      if (T.Degrees[P] != T.Degrees[0])
        return 0;
    return T.Degrees[0];
  }

  /// evalKnuthOps *as compiled* into the scalar cores, including the output
  /// compensation it feeds. GCC's contraction map, read off the shipped
  /// objects' disassembly:
  ///
  ///   deg 4 (exp):    Y = fma(x+a0, x, a1)
  ///                   u = fma((x+Y)+a2, Y, a3) * a4        (final mul plain)
  ///   deg 5 (exp2/10): t = x+a0; Y = t*t
  ///                   u = fma(fma(Y+a1, Y, a2), x+a3, a4) * a5   (mul plain)
  ///   deg 6 (log/log2): Z = fma(x+a0, x, a1); W = fma(x+a2, Z, a3)
  ///                   u = fma((Z+W)+a4, W, a5)
  ///                   result = fma(u, a6, comp)       <-- final *a6 is FUSED
  ///
  /// Every multiply feeding an add is fused; standalone adds stay plain.
  /// The one asymmetry: in the exp family the adapted value feeds a chain
  /// of multiplies (table * u * 2^n), so the final *a_d stays a plain
  /// vmulsd and the generic compensateV applies -- but in log/log2 it feeds
  /// the compensation *add*, and GCC fuses the scale across the inline
  /// boundary (result = fma(u, a6, n + Log2FTable[j]), resp. the ln
  /// variant), so the degree-6 path computes its own fused compensation
  /// here. Operand swaps on commutative adds/muls against the disassembly
  /// are bit-neutral. This map is what the dispatcher's parity probe
  /// re-proves at resolution time on every host (Batch.cpp).
  template <ElemFunc F, const SchemeTable &T>
  static VD knuthEvalV(VI Piece, const VecRed &R) {
    constexpr unsigned D = knuthDegree<T>();
    static_assert(D == 4 || D == 5 || D == 6, "unsupported adapted degree");
    M PM{};
    if constexpr (T.NumPieces > 1)
      PM = Ops::toMask(Ops::gtI(Piece, Ops::set1I(0)));
    (void)Piece;
    VD X = R.T;
    if constexpr (D == 4) {
      static_assert(isExpFamily(F), "degree-4 adapted form is exp only");
      VD Y = Ops::fmadd(Ops::add(X, kcoeff<T>(0, PM)), X, kcoeff<T>(1, PM));
      VD U = Ops::fmadd(Ops::add(Ops::add(X, Y), kcoeff<T>(2, PM)), Y,
                        kcoeff<T>(3, PM));
      return compensateV<F>(Ops::mul(U, kcoeff<T>(4, PM)), R);
    } else if constexpr (D == 5) {
      static_assert(isExpFamily(F), "degree-5 adapted form is exp2/exp10 only");
      VD T0 = Ops::add(X, kcoeff<T>(0, PM));
      VD Y = Ops::mul(T0, T0);
      VD P = Ops::fmadd(Ops::add(Y, kcoeff<T>(1, PM)), Y, kcoeff<T>(2, PM));
      VD U = Ops::fmadd(P, Ops::add(X, kcoeff<T>(3, PM)), kcoeff<T>(4, PM));
      return compensateV<F>(Ops::mul(U, kcoeff<T>(5, PM)), R);
    } else {
      static_assert(F == ElemFunc::Log || F == ElemFunc::Log2,
                    "degree-6 adapted form is log/log2 only");
      VD Z = Ops::fmadd(Ops::add(X, kcoeff<T>(0, PM)), X, kcoeff<T>(1, PM));
      VD W = Ops::fmadd(Ops::add(X, kcoeff<T>(2, PM)), Z, kcoeff<T>(3, PM));
      VD U = Ops::fmadd(Ops::add(Ops::add(Z, W), kcoeff<T>(4, PM)), W,
                        kcoeff<T>(5, PM));
      VD Nd = Ops::toD(R.N);
      VD Comp;
      if constexpr (F == ElemFunc::Log2)
        Comp = Ops::add(Nd, Ops::gather(tables::Log2FTable, R.J));
      else
        Comp = Ops::fmadd(Nd, Ops::set1(tables::Ln2),
                          Ops::gather(tables::LnFTable, R.J));
      return Ops::fmadd(U, kcoeff<T>(6, PM), Comp);
    }
  }

  //===--------------------------------------------------------------------===//
  // The kernel frame
  //===--------------------------------------------------------------------===//

  /// W lanes under a live-lane bitmask: reduce, match the generated
  /// special-case list, evaluate the polynomial, compensate, store -- then
  /// overwrite every live fallback lane with the scalar core's result. A
  /// full block passes all W bits; a masked tail passes (1 << rem) - 1, and
  /// the traits' load/store never touch memory beyond N.
  template <ElemFunc F, EvalScheme S, const SchemeTable &T,
            const BatchSchemeTable &B>
  static void block(double (*Core)(float), const float *In, double *H,
                    unsigned Live) {
    VI XBits = Ops::loadBits(In, Live);
    VD Xd = Ops::widenFloats(XBits);

    VecRed R;
    if constexpr (F == ElemFunc::Exp2)
      R = reduceExp2V(Xd);
    else if constexpr (isExpFamily(F))
      R = reduceExpKindV<F>(Xd);
    else
      R = reduceLogKindV(XBits);

    VI Spec = Ops::set1I(0);
    for (int I = 0; I < T.NumSpecials; ++I)
      Spec = Ops::orI(Spec, Ops::eqI(XBits, Ops::set1I(static_cast<int>(
                                                T.Specials[I].Bits))));
    unsigned Fallback = (~Ops::bits(R.Ok) | Ops::bitsI(Spec)) & Live;

    VI Piece = pieceIndexV<F>(R.T, B.NumPieces);
    VD Res;
    if constexpr (S == EvalScheme::Knuth)
      Res = knuthEvalV<F, T>(Piece, R);
    else
      Res = compensateV<F>(evalPolyV<S, B>(Piece, R.T), R);
    Ops::store(H, Live, Res);

    while (Fallback) {
      unsigned L = static_cast<unsigned>(__builtin_ctz(Fallback));
      Fallback &= Fallback - 1;
      H[L] = Core(In[L]);
    }
  }

  template <ElemFunc F, EvalScheme S>
  static void kernel(const float *In, double *H, size_t N) {
    constexpr const SchemeTable &T = *Gen<F>::Scheme[static_cast<int>(S)];
    constexpr const BatchSchemeTable &B = *Gen<F>::Batch[static_cast<int>(S)];
    constexpr unsigned AllLive = (1u << Ops::W) - 1u;
    double (*Core)(float) = detail::scalarCoreFor(F, S);
    size_t I = 0;
    for (; I + Ops::W <= N; I += Ops::W)
      block<F, S, T, B>(Core, In + I, H + I, AllLive);
    if constexpr (Ops::MaskedTail) {
      if (I < N)
        block<F, S, T, B>(Core, In + I, H + I, (1u << (N - I)) - 1u);
    } else {
      for (; I < N; ++I)
        H[I] = Core(In[I]);
    }
  }

  /// The Knuth slot: a vector kernel where the variant is generated
  /// (log10's Knuth adaptation does not exist; its slot stays null and the
  /// dispatcher keeps the scalar loop, which asserts unreachable).
  template <ElemFunc F> static constexpr BatchKernelFn knuthKernelFor() {
    if constexpr (Gen<F>::Scheme[static_cast<int>(EvalScheme::Knuth)]
                      ->Available)
      return kernel<F, EvalScheme::Knuth>;
    else
      return nullptr;
  }
};

#undef RFP_UNROLL

} // namespace

/// The initializer of one ISA's `[6][4]` kernel table in ElemFunc x
/// EvalScheme order, instantiated from KernelBody<Ops>.
#define RFP_BATCH_KERNEL_ROW(Ops, F)                                           \
  {KernelBody<Ops>::kernel<F, EvalScheme::Horner>,                             \
   KernelBody<Ops>::knuthKernelFor<F>(),                                       \
   KernelBody<Ops>::kernel<F, EvalScheme::Estrin>,                             \
   KernelBody<Ops>::kernel<F, EvalScheme::EstrinFMA>}
#define RFP_BATCH_KERNEL_TABLE(Ops)                                            \
  {RFP_BATCH_KERNEL_ROW(Ops, ElemFunc::Exp),                                   \
   RFP_BATCH_KERNEL_ROW(Ops, ElemFunc::Exp2),                                  \
   RFP_BATCH_KERNEL_ROW(Ops, ElemFunc::Exp10),                                 \
   RFP_BATCH_KERNEL_ROW(Ops, ElemFunc::Log),                                   \
   RFP_BATCH_KERNEL_ROW(Ops, ElemFunc::Log2),                                  \
   RFP_BATCH_KERNEL_ROW(Ops, ElemFunc::Log10)}

#endif // RFP_LIBM_BATCHKERNELBODY_H

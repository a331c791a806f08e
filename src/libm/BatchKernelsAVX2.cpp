//===- libm/BatchKernelsAVX2.cpp - AVX2+FMA batch kernels -----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The AVX2+FMA lane ops for the shared batch kernel body
// (BatchKernelBody.h, which holds the bit-identity argument and every
// reduction, polynomial, compensation and frame step): four double lanes,
// lane masks as all-ones 64-bit lanes (int32 compares sign-extended to
// them), multi-piece coefficient rows fetched with one aligned 32-byte
// load plus a vpermps (~1 cycle throughput, against ~4-6 for vgatherdpd),
// the llround halfway adjustment as and-then-add, and the loop tail as the
// scalar core per element.
//
// This is the only TU compiled with -mavx2 (src/CMakeLists.txt); see the
// body's header for why it odr-uses no shared inline function.
//
//===----------------------------------------------------------------------===//

#include "libm/BatchKernelBody.h"

namespace {

struct AVX2Ops {
  static constexpr unsigned W = 4;
  static constexpr bool MaskedTail = false;
  using VD = __m256d;
  using VI = __m128i;
  using M = __m256d;
  using RowSel = __m256i;

  static VD set1(double V) { return _mm256_set1_pd(V); }
  static VD add(VD A, VD B) { return _mm256_add_pd(A, B); }
  static VD sub(VD A, VD B) { return _mm256_sub_pd(A, B); }
  static VD mul(VD A, VD B) { return _mm256_mul_pd(A, B); }
  static VD fmadd(VD A, VD B, VD C) { return _mm256_fmadd_pd(A, B, C); }
  static VD fnmadd(VD A, VD B, VD C) { return _mm256_fnmadd_pd(A, B, C); }
  static VD abs(VD A) { return _mm256_andnot_pd(set1(-0.0), A); }
  static VD roundNearest(VD A) {
    return _mm256_round_pd(A, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static VD floor(VD A) { return _mm256_floor_pd(A); }
  template <int P> static M cmp(VD A, VD B) { return _mm256_cmp_pd(A, B, P); }
  static VD addWhere(VD A, M Mask, VD B) {
    return _mm256_add_pd(A, _mm256_and_pd(Mask, B));
  }
  static VD select(M Mask, VD IfClear, VD IfSet) {
    return _mm256_blendv_pd(IfClear, IfSet, Mask);
  }

  static M mAnd(M A, M B) { return _mm256_and_pd(A, B); }
  static M mAndNot(M A, M B) { return _mm256_andnot_pd(A, B); }
  static unsigned bits(M Mask) {
    return static_cast<unsigned>(_mm256_movemask_pd(Mask));
  }
  static M toMask(VI Mask) {
    return _mm256_castsi256_pd(_mm256_cvtepi32_epi64(Mask));
  }

  static VI set1I(int V) { return _mm_set1_epi32(V); }
  static VI addI(VI A, VI B) { return _mm_add_epi32(A, B); }
  static VI andI(VI A, VI B) { return _mm_and_si128(A, B); }
  static VI orI(VI A, VI B) { return _mm_or_si128(A, B); }
  static VI maxI(VI A, VI B) { return _mm_max_epi32(A, B); }
  static VI minI(VI A, VI B) { return _mm_min_epi32(A, B); }
  static VI eqI(VI A, VI B) { return _mm_cmpeq_epi32(A, B); }
  static VI gtI(VI A, VI B) { return _mm_cmpgt_epi32(A, B); }
  template <int S> static VI srai(VI A) { return _mm_srai_epi32(A, S); }
  template <int S> static VI srli(VI A) { return _mm_srli_epi32(A, S); }
  static unsigned bitsI(VI Mask) {
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(Mask)));
  }

  static VI cvttI(VD A) { return _mm256_cvttpd_epi32(A); }
  static VD toD(VI A) { return _mm256_cvtepi32_pd(A); }
  static VD gather(const double *Base, VI Idx) {
    return _mm256_i32gather_pd(Base, Idx, 8);
  }
  static VI gatherI(const int32_t *Base, VI Idx) {
    return _mm_i32gather_epi32(Base, Idx, 4);
  }
  static VD pow2(VI Biased) {
    return _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_cvtepi32_epi64(Biased), 52));
  }

  /// vpermps lane indices {2p, 2p+1} selecting each lane's double.
  static RowSel rowSel(VI Piece) {
    __m256i Twice = _mm256_slli_epi64(_mm256_cvtepi32_epi64(Piece), 1);
    return _mm256_or_si256(
        Twice,
        _mm256_slli_epi64(_mm256_add_epi64(Twice, _mm256_set1_epi64x(1)), 32));
  }
  static VD fromRow(const double *Row, RowSel S) {
    return _mm256_castps_pd(
        _mm256_permutevar8x32_ps(_mm256_castpd_ps(_mm256_load_pd(Row)), S));
  }

  /// Only full blocks reach the body (MaskedTail is false).
  static VI loadBits(const float *In, unsigned) {
    return _mm_castps_si128(_mm_loadu_ps(In));
  }
  static VD widenFloats(VI Bits) {
    return _mm256_cvtps_pd(_mm_castsi128_ps(Bits));
  }
  static void store(double *H, unsigned, VD V) { _mm256_storeu_pd(H, V); }
};

} // namespace

const BatchKernelFn rfp::libm::detail::AVX2BatchKernels[6][4] =
    RFP_BATCH_KERNEL_TABLE(AVX2Ops);

//===- libm/BatchKernelsAVX512.cpp - AVX-512 batch kernels ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The AVX-512 (F+DQ+BW+VL) lane ops for the shared batch kernel body
// (BatchKernelBody.h, which holds the bit-identity argument and every
// reduction, polynomial, compensation and frame step): eight double lanes
// with native predication --
//
//  * lane masks are __mmask8 registers; the llround halfway adjustment is
//    a masked add, which leaves non-adjusted lanes bit-untouched;
//  * the loop tail is one *masked* block (`_mm256_maskz_loadu_ps` /
//    `_mm512_mask_storeu_pd` under Live = (1 << rem) - 1), so a 5-element
//    call takes the same straight-line path as a 4096-element one;
//  * a multi-piece coefficient fetch is one `vbroadcastf64x4` of the
//    32-byte SoA row plus one `vpermpd` (_mm512_permutexvar_pd) keyed by
//    the 64-bit piece indices, the 8-lane analogue of AVX2's vpermps row.
//
// This is the only TU compiled with the -mavx512* flags
// (src/CMakeLists.txt); see the body's header for why it odr-uses no
// shared inline function.
//
//===----------------------------------------------------------------------===//

#include "libm/BatchKernelBody.h"

namespace {

struct AVX512Ops {
  static constexpr unsigned W = 8;
  static constexpr bool MaskedTail = true;
  using VD = __m512d;
  using VI = __m256i;
  using M = __mmask8;
  using RowSel = __m512i;

  static VD set1(double V) { return _mm512_set1_pd(V); }
  static VD add(VD A, VD B) { return _mm512_add_pd(A, B); }
  static VD sub(VD A, VD B) { return _mm512_sub_pd(A, B); }
  static VD mul(VD A, VD B) { return _mm512_mul_pd(A, B); }
  static VD fmadd(VD A, VD B, VD C) { return _mm512_fmadd_pd(A, B, C); }
  static VD fnmadd(VD A, VD B, VD C) { return _mm512_fnmadd_pd(A, B, C); }
  static VD abs(VD A) { return _mm512_abs_pd(A); }
  static VD roundNearest(VD A) {
    return _mm512_roundscale_pd(A, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
  }
  static VD floor(VD A) { return _mm512_floor_pd(A); }
  template <int P> static M cmp(VD A, VD B) {
    return _mm512_cmp_pd_mask(A, B, P);
  }
  static VD addWhere(VD A, M Mask, VD B) {
    return _mm512_mask_add_pd(A, Mask, A, B);
  }
  static VD select(M Mask, VD IfClear, VD IfSet) {
    return _mm512_mask_blend_pd(Mask, IfClear, IfSet);
  }

  static M mAnd(M A, M B) { return A & B; }
  static M mAndNot(M A, M B) { return static_cast<M>(~A & B); }
  static unsigned bits(M Mask) { return Mask; }
  static M toMask(VI Mask) { return _mm256_movepi32_mask(Mask); }

  static VI set1I(int V) { return _mm256_set1_epi32(V); }
  static VI addI(VI A, VI B) { return _mm256_add_epi32(A, B); }
  static VI andI(VI A, VI B) { return _mm256_and_si256(A, B); }
  static VI orI(VI A, VI B) { return _mm256_or_si256(A, B); }
  static VI maxI(VI A, VI B) { return _mm256_max_epi32(A, B); }
  static VI minI(VI A, VI B) { return _mm256_min_epi32(A, B); }
  static VI eqI(VI A, VI B) { return _mm256_cmpeq_epi32(A, B); }
  static VI gtI(VI A, VI B) { return _mm256_cmpgt_epi32(A, B); }
  template <int S> static VI srai(VI A) { return _mm256_srai_epi32(A, S); }
  template <int S> static VI srli(VI A) { return _mm256_srli_epi32(A, S); }
  static unsigned bitsI(VI Mask) {
    return static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(Mask)));
  }

  static VI cvttI(VD A) { return _mm512_cvttpd_epi32(A); }
  static VD toD(VI A) { return _mm512_cvtepi32_pd(A); }
  static VD gather(const double *Base, VI Idx) {
    return _mm512_i32gather_pd(Idx, Base, 8);
  }
  static VI gatherI(const int32_t *Base, VI Idx) {
    return _mm256_i32gather_epi32(reinterpret_cast<const int *>(Base), Idx, 4);
  }
  static VD pow2(VI Biased) {
    return _mm512_castsi512_pd(
        _mm512_slli_epi64(_mm512_cvtepi32_epi64(Biased), 52));
  }

  /// 64-bit piece indices; 0..3 select from the broadcast row's lower half.
  static RowSel rowSel(VI Piece) { return _mm512_cvtepi32_epi64(Piece); }
  static VD fromRow(const double *Row, RowSel S) {
    return _mm512_permutexvar_pd(S,
                                 _mm512_broadcast_f64x4(_mm256_load_pd(Row)));
  }

  static VI loadBits(const float *In, unsigned Live) {
    return _mm256_castps_si256(
        _mm256_maskz_loadu_ps(static_cast<__mmask8>(Live), In));
  }
  static VD widenFloats(VI Bits) {
    return _mm512_cvtps_pd(_mm256_castsi256_ps(Bits));
  }
  static void store(double *H, unsigned Live, VD V) {
    _mm512_mask_storeu_pd(H, static_cast<__mmask8>(Live), V);
  }
};

} // namespace

const BatchKernelFn rfp::libm::detail::AVX512BatchKernels[6][4] =
    RFP_BATCH_KERNEL_TABLE(AVX512Ops);

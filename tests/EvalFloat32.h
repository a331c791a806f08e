//===- tests/EvalFloat32.h - float32 results through rfp::eval -*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef RFP_TESTS_EVALFLOAT32_H
#define RFP_TESTS_EVALFLOAT32_H

#include "libm/rfp.h"

#include <cstdint>
#include <cstring>

namespace rfp {
namespace test {

/// f(x) in float32 round-to-nearest-even through the public API, with the
/// default-constructed VariantKey's scheme, format and mode (Estrin+FMA,
/// float32, nearest-even). A NaN result is the format's canonical quiet
/// NaN, whatever the input's sign or payload.
inline float evalFloat32(ElemFunc F, float X) {
  VariantKey K;
  K.Func = F;
  uint32_t Enc = static_cast<uint32_t>(eval(K, X).Enc);
  float R;
  std::memcpy(&R, &Enc, sizeof(R));
  return R;
}

} // namespace test
} // namespace rfp

#endif // RFP_TESTS_EVALFLOAT32_H

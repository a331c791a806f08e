//===- tests/BatchProbeTest.cpp - Full parity probe demotes nothing -------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The dispatcher's one-time parity probe (libm/Batch.cpp) replaces any
// vector kernel that disagrees with the scalar core by the scalar loop. A
// demoted slot passes every parity test -- it *is* the scalar loop -- so a
// wrong operation order in the shared kernel body (BatchKernelBody.h)
// would otherwise show only as lost throughput. This test resolves the
// AVX2 and AVX-512 sets under the full probe (every vector kernel, not
// just Knuth) and requires that no slot was demoted. It is its own binary
// because the probe policy is read once per set, at its first resolution.
//
//===----------------------------------------------------------------------===//

#include "libm/Batch.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

using namespace rfp;
using namespace rfp::libm;

namespace {

TEST(BatchProbeTest, FullProbeDemotesNothing) {
  setenv("RFP_BATCH_PARITY_PROBE", "full", /*overwrite=*/1);
  const float In[1] = {0.5f};
  double H[1];
  int Resolved = 0;
  for (BatchISA ISA : {BatchISA::AVX2, BatchISA::AVX512}) {
    // A set the build or CPU lacks resolves to scalar, whose calls are
    // counted under the scalar name.
    std::string Calls = std::string("libm.batch.calls.") + batchISAName(ISA);
    uint64_t Before = telemetry::counterValue(Calls.c_str());
    evalBatchWithISA(ISA, ElemFunc::Exp, EvalScheme::Horner, In, H, 1);
    if (telemetry::counterValue(Calls.c_str()) > Before)
      ++Resolved;
  }
  unsetenv("RFP_BATCH_PARITY_PROBE");
  if (Resolved == 0)
    GTEST_SKIP() << "no x86 vector kernel set in this build or on this CPU";
  EXPECT_EQ(telemetry::counterValue("libm.batch.probe.demoted"), 0u);
}

} // namespace

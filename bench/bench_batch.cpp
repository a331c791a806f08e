//===- bench/bench_batch.cpp - Batch vs per-call throughput ---------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Throughput comparison for the batch evaluation layer: elements/cycle of
// the per-call scalar loop vs evalBatch under the forced-scalar kernels
// and under the active ISA (AVX2 where compiled in and supported), per
// function and scheme, over a dense sweep of in-range inputs. A second
// active-ISA column runs the same kernels over inputs uniform over all
// 2^32 encodings, where out-of-range and special lanes take the scalar
// fallback, so the cost of that fallback stays measured per ISA. A
// further column times the encodings-out form, rfp::evalBatch into float32
// round-to-nearest encodings, so the output rounding stage stays measured
// next to the H-only kernels. The batch contract is bit-identity, so this
// benchmark is purely about speed; the
// separate --verify mode sweeps 2^bits consecutive-stride inputs per
// function/scheme (default 2^28) and bit-compares every H against the
// scalar core, exiting nonzero on the first mismatching variant.
//
// JSON output (--json[=path]) follows the bench_speedup schema family so
// CI can archive the perf trajectory across PRs.
//
//===----------------------------------------------------------------------===//

#include "CycleTimer.h"
#include "JsonWriter.h"

#include "libm/Batch.h"
#include "libm/rfp.h"
#include "libm/rlibm.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace rfp;
using namespace rfp::libm;
using namespace rfp::bench;

namespace {

/// Dense strided sweep over inputs that reach the polynomial path:
/// throughput is a property of the vector fast path, so inputs the lane
/// mask routes through the scalar core (out-of-range, below the
/// small-input threshold, integral exp2 arguments, subnormal log
/// arguments) are excluded here -- their handling is covered by --verify
/// and BatchParityTest. Note bench_speedup's looser in-range filter would
/// leave ~39% of the exp-family sample below the tiny-input threshold
/// (bit-space sampling overweights small magnitudes), which measures the
/// fallback loop rather than the kernels.
std::vector<float> buildInputs(ElemFunc F) {
  std::vector<float> Inputs;
  Inputs.reserve(1 << 19);
  for (uint64_t B = 0; B < (1ull << 32); B += 6151) {
    float X;
    uint32_t Bits = static_cast<uint32_t>(B);
    std::memcpy(&X, &Bits, sizeof(X));
    if (std::isnan(X))
      continue;
    bool InRange = false;
    switch (F) {
    case ElemFunc::Exp:
      InRange = X > -104.0f && X < 88.0f && std::fabs(X) >= 0x1p-27f;
      break;
    case ElemFunc::Exp2:
      InRange = X > -151.0f && X < 128.0f && std::fabs(X) >= 0x1p-26f &&
                X != std::nearbyint(X);
      break;
    case ElemFunc::Exp10:
      InRange = X > -45.0f && X < 38.0f && std::fabs(X) >= 0x1p-28f;
      break;
    case ElemFunc::Log:
    case ElemFunc::Log2:
    case ElemFunc::Log10:
      InRange = X >= 0x1p-126f && std::isfinite(X);
      break;
    }
    if (InRange)
      Inputs.push_back(X);
  }
  return Inputs;
}

/// The same strided sweep with nothing excluded: inputs uniform over all
/// 2^32 encodings (NaNs, infinities, zeros, subnormals and out-of-range
/// values included), shared by every function.
std::vector<float> buildWholeDomainInputs() {
  std::vector<float> Inputs;
  Inputs.reserve((1ull << 32) / 6151 + 1);
  for (uint64_t B = 0; B < (1ull << 32); B += 6151) {
    float X;
    uint32_t Bits = static_cast<uint32_t>(B);
    std::memcpy(&X, &Bits, sizeof(X));
    Inputs.push_back(X);
  }
  return Inputs;
}

using CoreFn = double (*)(float);

CoreFn coreFor(ElemFunc F, EvalScheme S) {
  static constexpr CoreFn Table[6][4] = {
      {exp_horner, exp_knuth, exp_estrin, exp_estrin_fma},
      {exp2_horner, exp2_knuth, exp2_estrin, exp2_estrin_fma},
      {exp10_horner, exp10_knuth, exp10_estrin, exp10_estrin_fma},
      {log_horner, log_knuth, log_estrin, log_estrin_fma},
      {log2_horner, log2_knuth, log2_estrin, log2_estrin_fma},
      {log10_horner, log10_knuth, log10_estrin, log10_estrin_fma},
  };
  return Table[static_cast<int>(F)][static_cast<int>(S)];
}

/// Cycles for one pass of the per-call scalar loop over all inputs (one
/// rdtscp pair around the whole loop -- per-element timing would charge
/// the timer overhead to the per-call side only). Best of \p Repeats.
double measurePerCall(ElemFunc F, EvalScheme S, const std::vector<float> &In,
                      double &Sink, int Repeats = 5) {
  CoreFn Core = coreFor(F, S); // hoisted, like a direct exp_estrin_fma loop
  uint64_t Best = ~0ull;
  for (int R = 0; R < Repeats; ++R) {
    double Acc = 0.0;
    uint64_t T0 = readCycles();
    for (float X : In)
      Acc += Core(X);
    uint64_t T1 = readCycles();
    Sink += Acc;
    if (T1 - T0 < Best)
      Best = T1 - T0;
  }
  return static_cast<double>(Best) / In.size();
}

/// Cycles per element for one evalBatchWithISA call over the whole buffer.
double measureBatch(BatchISA ISA, ElemFunc F, EvalScheme S,
                    const std::vector<float> &In, std::vector<double> &H,
                    double &Sink, int Repeats = 5) {
  uint64_t Best = ~0ull;
  for (int R = 0; R < Repeats; ++R) {
    uint64_t T0 = readCycles();
    evalBatchWithISA(ISA, F, S, In.data(), H.data(), In.size());
    uint64_t T1 = readCycles();
    Sink += H[In.size() / 2];
    if (T1 - T0 < Best)
      Best = T1 - T0;
  }
  return static_cast<double>(Best) / In.size();
}

/// Cycles per element for one rfp::evalBatch call into float32
/// round-to-nearest encodings: the active-ISA H kernels plus the output
/// rounding stage.
double measureEnc(ElemFunc F, EvalScheme S, const std::vector<float> &In,
                  std::vector<uint64_t> &Enc, double &Sink, int Repeats = 5) {
  const VariantKey K{F, S, FPFormat::float32(), RoundingMode::NearestEven};
  uint64_t Best = ~0ull;
  for (int R = 0; R < Repeats; ++R) {
    uint64_t T0 = readCycles();
    rfp::evalBatch(K, In.data(), Enc.data(), In.size());
    uint64_t T1 = readCycles();
    Sink += static_cast<double>(Enc[In.size() / 2]);
    if (T1 - T0 < Best)
      Best = T1 - T0;
  }
  return static_cast<double>(Best) / In.size();
}

struct Row {
  bool Available = false;
  double PerCallCyc = 0;  // per-call loop, cycles/element
  double ScalarCyc = 0;   // batch, forced scalar kernels
  double ActiveCyc = 0;   // batch, active ISA
  double WholeCyc = 0;    // batch, active ISA, whole-domain inputs
  double EncCyc = 0;      // rfp::evalBatch to fp32/rn encodings
};

void writeJson(const std::string &Path, double Overhead, double CyclesPerNs,
               const Row Rows[6][4]) {
  bench::Report Rep(Path, "bench_batch");
  if (!Rep.ok())
    return;
  json::Writer &W = Rep.writer();
  W.kv("active_isa", batchISAName(activeBatchISA()));
  W.kvFixed("timer_overhead_cycles", Overhead, 2);
  W.kvFixed("cycles_per_ns", CyclesPerNs, 4);
  W.key("functions");
  W.beginArray();
  for (int FI = 0; FI < 6; ++FI) {
    W.beginObject();
    W.kv("func", elemFuncName(AllElemFuncs[FI]));
    W.key("schemes");
    W.beginArray();
    for (int SI = 0; SI < 4; ++SI) {
      const Row &R = Rows[FI][SI];
      if (!R.Available)
        continue;
      W.inlineNext();
      W.beginObject();
      W.kv("scheme", evalSchemeName(static_cast<EvalScheme>(SI)));
      W.kvFixed("percall_cycles_per_elem", R.PerCallCyc, 3);
      W.kvFixed("batch_scalar_cycles_per_elem", R.ScalarCyc, 3);
      W.kvFixed("batch_active_cycles_per_elem", R.ActiveCyc, 3);
      W.kvFixed("batch_active_wholedomain_cycles_per_elem", R.WholeCyc, 3);
      W.kvFixed("enc_fp32_rn_cycles_per_elem", R.EncCyc, 3);
      W.kvSci("batch_active_elems_per_sec", CyclesPerNs * 1e9 / R.ActiveCyc,
              3);
      W.kvFixed("speedup_active_vs_percall", R.PerCallCyc / R.ActiveCyc, 3);
      W.kvFixed("scalar_batch_vs_percall", R.PerCallCyc / R.ScalarCyc, 3);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
}

/// Dense bitwise parity sweep: 2^bits inputs per (function, scheme),
/// consecutive bit patterns stride 2^(32-bits) apart, batch-evaluated in
/// chunks under the active ISA and compared to the scalar core. Returns
/// the number of mismatching variants.
int runVerify(int Bits) {
  const uint64_t Points = 1ull << Bits;
  const uint64_t Stride = 1ull << (32 - Bits);
  constexpr size_t Chunk = 1 << 14;
  std::vector<float> In(Chunk);
  std::vector<double> H(Chunk);
  std::printf("verify: 2^%d inputs per variant (bit stride %llu), ISA %s\n",
              Bits, static_cast<unsigned long long>(Stride),
              batchISAName(activeBatchISA()));
  int BadVariants = 0;
  for (ElemFunc F : AllElemFuncs) {
    for (EvalScheme S : AllEvalSchemes) {
      if (!variantInfo(F, S).Available)
        continue;
      long Mismatches = 0;
      for (uint64_t Base = 0; Base < Points; Base += Chunk) {
        size_t N = static_cast<size_t>(
            Points - Base < Chunk ? Points - Base : Chunk);
        for (size_t I = 0; I < N; ++I) {
          uint32_t Bits32 = static_cast<uint32_t>((Base + I) * Stride);
          std::memcpy(&In[I], &Bits32, sizeof(float));
        }
        evalBatch(F, S, In.data(), H.data(), N);
        for (size_t I = 0; I < N; ++I) {
          double Want = evalCore(F, S, In[I]);
          uint64_t WantBits, GotBits;
          std::memcpy(&WantBits, &Want, sizeof(WantBits));
          std::memcpy(&GotBits, &H[I], sizeof(GotBits));
          if (WantBits != GotBits && ++Mismatches <= 3)
            std::printf("  MISMATCH %s/%s x=%a batch=%a scalar=%a\n",
                        elemFuncName(F), evalSchemeName(S),
                        static_cast<double>(In[I]), H[I], Want);
        }
      }
      std::printf("  %-6s %-10s %s (%ld mismatches)\n", elemFuncName(F),
                  evalSchemeName(S), Mismatches ? "FAIL" : "ok", Mismatches);
      if (Mismatches)
        ++BadVariants;
    }
  }
  std::printf("verify: %d variant(s) mismatched\n", BadVariants);
  return BadVariants;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::ReportOptions Opts;
  bool Verify = false;
  int VerifyBits = 28;
  for (int I = 1; I < Argc; ++I) {
    if (Opts.parse(Argc, Argv, I, "bench_batch.json"))
      continue;
    else if (std::strcmp(Argv[I], "--verify") == 0)
      Verify = true;
    else if (std::strncmp(Argv[I], "--verify=", 9) == 0) {
      Verify = true;
      VerifyBits = std::atoi(Argv[I] + 9);
      if (VerifyBits < 1 || VerifyBits > 32) {
        std::fprintf(stderr, "--verify=bits must be in [1,32]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s %s [--verify[=bits]]\n", Argv[0],
                   bench::ReportOptions::usage());
      return 2;
    }
  }

  if (Verify)
    return runVerify(VerifyBits) ? 1 : 0;

  double Overhead = timerOverheadPerCall();
  double CyclesPerNs = cyclesPerNanosecond();
  double Sink = 0.0;
  Row Rows[6][4];

  std::printf("Batch layer throughput: cycles/element, per-call loop vs "
              "evalBatch\n(active ISA: %s; batch results bit-identical to "
              "the per-call core)\n\n",
              batchISAName(activeBatchISA()));
  char ActiveCol[16];
  std::snprintf(ActiveCol, sizeof(ActiveCol), "batch-%s",
                batchISAName(activeBatchISA()));
  std::printf("%-8s %-10s %10s %12s %12s %12s %12s | %9s %9s\n", "f(x)",
              "scheme", "percall", "batch-scal", ActiveCol, "whole-domain",
              "enc-fp32-rn", "vs-call", "scal/call");
  std::printf("%-8s %-10s %10s %12s %12s %12s %12s | %9s %9s\n", "", "",
              "(cyc)", "(cyc)", "(cyc)", "(cyc)", "(cyc)", "(x)", "(x)");

  const std::vector<float> Whole = buildWholeDomainInputs();
  std::vector<double> HWhole(Whole.size());
  for (int FI = 0; FI < 6; ++FI) {
    ElemFunc F = AllElemFuncs[FI];
    std::vector<float> Inputs = buildInputs(F);
    std::vector<double> H(Inputs.size());
    std::vector<uint64_t> Enc(Inputs.size());
    for (int SI = 0; SI < 4; ++SI) {
      EvalScheme S = static_cast<EvalScheme>(SI);
      Row &R = Rows[FI][SI];
      if (!variantInfo(F, S).Available)
        continue;
      R.Available = true;
      R.PerCallCyc = measurePerCall(F, S, Inputs, Sink);
      R.ScalarCyc = measureBatch(BatchISA::Scalar, F, S, Inputs, H, Sink);
      R.ActiveCyc = measureBatch(activeBatchISA(), F, S, Inputs, H, Sink);
      R.WholeCyc = measureBatch(activeBatchISA(), F, S, Whole, HWhole, Sink);
      R.EncCyc = measureEnc(F, S, Inputs, Enc, Sink);
      std::printf("%-8s %-10s %10.2f %12.2f %12.2f %12.2f %12.2f | %8.2fx "
                  "%8.2fx\n",
                  SI == 0 ? elemFuncName(F) : "", evalSchemeName(S),
                  R.PerCallCyc, R.ScalarCyc, R.ActiveCyc, R.WholeCyc,
                  R.EncCyc, R.PerCallCyc / R.ActiveCyc,
                  R.PerCallCyc / R.ScalarCyc);
    }
  }

  // Family summaries over the Estrin+FMA variant (the batch default).
  double ExpSpeed = 0, LogSpeed = 0;
  for (int FI = 0; FI < 3; ++FI)
    ExpSpeed += Rows[FI][3].PerCallCyc / Rows[FI][3].ActiveCyc;
  for (int FI = 3; FI < 6; ++FI)
    LogSpeed += Rows[FI][3].PerCallCyc / Rows[FI][3].ActiveCyc;
  std::printf("\nEstrin+FMA batch speedup vs per-call loop: exp family "
              "%.2fx, log family %.2fx\n",
              ExpSpeed / 3, LogSpeed / 3);
  std::printf("(sink %g)\n", Sink == 12345.0 ? 1.0 : 0.0);

  if (!Opts.JsonPath.empty())
    writeJson(Opts.JsonPath, Overhead, CyclesPerNs, Rows);
  Opts.finish();
  return 0;
}

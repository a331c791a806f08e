//===- bench/bench_serve.cpp - Serving-layer load generator ---------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Load generator for the serve layer (src/serve): a pipelined closed loop
// keeps a fixed window of small requests outstanding against one Server
// and measures per-request completion latency (p50/p99) plus saturation
// throughput (elements/sec over the whole run). Three scenarios stress
// the coalescer differently:
//
//   uniform  -- all six functions equally, one scheme/format/mode; many
//               tiny same-variant requests, so coalescing must engage
//               (CI guards mean_batch_width > 8, the request size, on
//               this scenario).
//   skewed   -- 80% of requests hit exp; models a hot-function tenant mix
//               where one queue saturates while others trickle.
//   mixed    -- rotating (function, scheme, format, rounding-mode) per
//               request; worst case for coalescing since requests spread
//               across many per-variant queues.
//
// Each scenario also reports the p50/p99 of the server's per-batch stage
// histograms (serve.stage_us.*: queue, gather, kernel, round_scatter,
// fulfil). Those are telemetry histograms with power-of-two buckets, so
// their quantiles are upper bounds within a factor of two; the registry is
// reset before each scenario, so --metrics-json dumps the last one.
//
// JSON output (--json[=path]) uses the shared Report envelope so CI can
// validate and archive BENCH_serve.json across PRs.
//
//===----------------------------------------------------------------------===//

#include "JsonWriter.h"

#include "libm/Batch.h"
#include "libm/rlibm.h"
#include "serve/Serve.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

using namespace rfp;
using namespace rfp::bench;

namespace {

using Clock = std::chrono::steady_clock;

/// Positive in-range inputs (valid for both exp- and log-family): the
/// serving layer's cost is queueing + kernel dispatch, so inputs stay on
/// the polynomial fast path. Deterministic LCG, no libc rand.
std::vector<float> buildPool(size_t N) {
  std::vector<float> Pool(N);
  uint64_t State = 0x9e3779b97f4a7c15ull;
  for (size_t I = 0; I < N; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    // Map to (2^-8, 8): comfortably inside every function's domain.
    double U = static_cast<double>(State >> 11) * 0x1p-53;
    Pool[I] = static_cast<float>(0x1p-8 + U * 8.0);
  }
  return Pool;
}

/// One request template produced by a scenario's mix function.
struct Shape {
  ElemFunc Func;
  EvalScheme Scheme;
  FPFormat Format;
  RoundingMode Mode;
  size_t N;
};

struct Scenario {
  const char *Name;
  const char *Detail;
  Shape (*Mix)(size_t Idx);
};

Shape uniformMix(size_t Idx) {
  return {AllElemFuncs[Idx % 6], EvalScheme::EstrinFMA, FPFormat::float32(),
          RoundingMode::NearestEven, 8};
}

Shape skewedMix(size_t Idx) {
  ElemFunc F = Idx % 10 < 8 ? ElemFunc::Exp : AllElemFuncs[1 + Idx % 5];
  return {F, EvalScheme::EstrinFMA, FPFormat::float32(),
          RoundingMode::NearestEven, 4 + Idx % 3 * 12};
}

Shape mixedMix(size_t Idx) {
  // Rotate over the available (function, scheme) variants plus output
  // formats and all five rounding modes: no two consecutive requests
  // share a queue, and the rounding path is exercised per request.
  static const std::vector<std::pair<ElemFunc, EvalScheme>> Variants = [] {
    std::vector<std::pair<ElemFunc, EvalScheme>> V;
    for (ElemFunc F : AllElemFuncs)
      for (EvalScheme S : AllEvalSchemes)
        if (libm::variantInfo(F, S).Available)
          V.emplace_back(F, S);
    return V;
  }();
  static const FPFormat Formats[4] = {FPFormat::float32(), FPFormat::bfloat16(),
                                      FPFormat::tensorfloat32(),
                                      FPFormat::withBits(27)};
  auto [F, S] = Variants[Idx % Variants.size()];
  return {F, S, Formats[Idx % 4], StandardRoundingModes[Idx % 5], 16};
}

const char *const Stages[] = {"queue", "gather", "kernel", "round_scatter",
                              "fulfil"};
constexpr int NumStages = 5;

struct ScenarioResult {
  serve::ServerStats Stats;
  double P50Us = 0, P99Us = 0;
  double WallMs = 0, ElemsPerSec = 0;
  telemetry::HistogramData Stage[NumStages];
};

/// Pipelined closed loop: keep `Window` requests outstanding; when the
/// window is full, retire the oldest and record its submit-to-complete
/// latency. Latency therefore includes queueing under load -- that is the
/// quantity a serving layer owes its callers, not bare kernel time.
ScenarioResult runScenario(const Scenario &Sc, const std::vector<float> &Pool,
                           size_t Requests, size_t Window,
                           const serve::ServerOptions &SrvOpts) {
  telemetry::resetMetrics();
  serve::Server Server(SrvOpts);
  std::vector<double> LatUs;
  LatUs.reserve(Requests);
  std::deque<std::pair<Clock::time_point, std::future<serve::Result>>> Inflight;
  size_t Elems = 0;
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < Requests; ++I) {
    Shape Sh = Sc.Mix(I);
    serve::Request R;
    R.Key.Func = Sh.Func;
    R.Key.Scheme = Sh.Scheme;
    R.Key.Format = Sh.Format;
    R.Key.Mode = Sh.Mode;
    R.N = Sh.N;
    R.In = Pool.data() + (I * 131) % (Pool.size() - Sh.N);
    Elems += Sh.N;
    Inflight.emplace_back(Clock::now(), Server.submit(R));
    while (Inflight.size() >= Window) {
      auto [At, Fut] = std::move(Inflight.front());
      Inflight.pop_front();
      Fut.get();
      LatUs.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                                At)
                          .count());
    }
  }
  for (auto &[At, Fut] : Inflight) {
    Fut.get();
    LatUs.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - At).count());
  }
  double WallSec = std::chrono::duration<double>(Clock::now() - T0).count();

  ScenarioResult Res;
  Res.Stats = Server.stats();
  Res.WallMs = WallSec * 1e3;
  Res.ElemsPerSec = static_cast<double>(Elems) / WallSec;
  std::sort(LatUs.begin(), LatUs.end());
  if (!LatUs.empty()) {
    Res.P50Us = LatUs[LatUs.size() / 2];
    Res.P99Us = LatUs[LatUs.size() * 99 / 100];
  }
  for (int I = 0; I < NumStages; ++I)
    Res.Stage[I] =
        telemetry::histogramValue(("serve.stage_us." + std::string(Stages[I]))
                                      .c_str());
  return Res;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::ReportOptions Opts;
  size_t Requests = 4000, Window = 64;
  serve::ServerOptions SrvOpts;
  for (int I = 1; I < Argc; ++I) {
    if (Opts.parse(Argc, Argv, I, "bench_serve.json"))
      continue;
    else if (std::strncmp(Argv[I], "--requests=", 11) == 0)
      Requests = static_cast<size_t>(std::atol(Argv[I] + 11));
    else if (std::strncmp(Argv[I], "--window=", 9) == 0)
      Window = static_cast<size_t>(std::atol(Argv[I] + 9));
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      SrvOpts.Threads = static_cast<unsigned>(std::atoi(Argv[I] + 10));
    else {
      std::fprintf(stderr,
                   "usage: %s %s [--requests=N] [--window=N] [--threads=N]\n",
                   Argv[0], bench::ReportOptions::usage());
      return 2;
    }
  }
  if (Requests < 100 || Window < 1) {
    std::fprintf(stderr, "--requests must be >= 100 and --window >= 1\n");
    return 2;
  }

  const Scenario Scenarios[] = {
      {"uniform", "6 functions round-robin, 8-elem requests, one variant each",
       uniformMix},
      {"skewed", "80% exp, mixed request sizes 4..28", skewedMix},
      {"mixed", "rotating function/scheme/format/mode, 16-elem requests",
       mixedMix},
  };

  std::vector<float> Pool = buildPool(1 << 14);
  std::printf("Serve layer load generator: %zu requests/scenario, window %zu, "
              "batch ISA %s\n\n",
              Requests, Window, libm::batchISAName(libm::activeBatchISA()));
  std::printf("%-8s %9s %9s %9s %10s %10s %12s\n", "scenario", "batches",
              "width", "coalesced", "p50(us)", "p99(us)", "elems/s");

  ScenarioResult Results[3];
  for (int SI = 0; SI < 3; ++SI) {
    Results[SI] = runScenario(Scenarios[SI], Pool, Requests, Window, SrvOpts);
    const ScenarioResult &R = Results[SI];
    std::printf("%-8s %9llu %9.1f %9llu %10.1f %10.1f %12.3e\n",
                Scenarios[SI].Name,
                static_cast<unsigned long long>(R.Stats.Batches),
                R.Stats.meanBatchWidth(),
                static_cast<unsigned long long>(R.Stats.CoalescedBatches),
                R.P50Us, R.P99Us, R.ElemsPerSec);
  }
  std::printf("\nper-batch stage p50/p99 (us):\n%-8s", "scenario");
  for (const char *St : Stages)
    std::printf(" %15s", St);
  std::printf("\n");
  for (int SI = 0; SI < 3; ++SI) {
    std::printf("%-8s", Scenarios[SI].Name);
    for (const telemetry::HistogramData &D : Results[SI].Stage)
      std::printf(" %7.2f/%7.2f", D.P50, D.P99);
    std::printf("\n");
  }

  if (!Opts.JsonPath.empty()) {
    bench::Report Rep(Opts.JsonPath, "bench_serve");
    if (Rep.ok()) {
      json::Writer &W = Rep.writer();
      W.kv("batch_isa", libm::batchISAName(libm::activeBatchISA()));
      W.kv("requests_per_scenario", static_cast<uint64_t>(Requests));
      W.kv("window", static_cast<uint64_t>(Window));
      W.key("scenarios");
      W.beginArray();
      for (int SI = 0; SI < 3; ++SI) {
        const ScenarioResult &R = Results[SI];
        W.beginObject();
        W.kv("name", Scenarios[SI].Name);
        W.kv("detail", Scenarios[SI].Detail);
        W.kv("requests", R.Stats.Requests);
        W.kv("elems", R.Stats.Elems);
        W.kv("batches", R.Stats.Batches);
        W.kv("coalesced_batches", R.Stats.CoalescedBatches);
        W.kvFixed("mean_batch_width", R.Stats.meanBatchWidth(), 2);
        W.kvFixed("p50_us", R.P50Us, 1);
        W.kvFixed("p99_us", R.P99Us, 1);
        W.kvFixed("wall_ms", R.WallMs, 1);
        W.kvSci("elems_per_sec", R.ElemsPerSec, 3);
        W.key("stage_us");
        W.beginObject();
        for (int I = 0; I < NumStages; ++I) {
          W.key(Stages[I]);
          W.beginObject();
          W.kvFixed("p50", R.Stage[I].P50, 3);
          W.kvFixed("p99", R.Stage[I].P99, 3);
          W.endObject();
        }
        W.endObject();
        W.endObject();
      }
      W.endArray();
    }
  }
  Opts.finish();
  return 0;
}

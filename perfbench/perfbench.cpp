//===- perfbench/perfbench.cpp - End-to-end benchmark ---------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The repository's one benchmark. Every run drives all three pipelines
// from outside, through their public entry points only:
//
//   evaluate  rfp::eval / rfp::evalBatch over a seeded variant mix, and one
//             serve::Server in a closed and an open loop;
//   generate  PolyGenerator::prepare + generate for exp and log;
//   verify    verify::runSweep over a format plan.
//
// The workload picks the evaluation inputs and which pipeline gets most of
// the run (README.md explains each choice). Every timed output is checked:
// batch and serve encodings against rfp::eval, a seeded sample against the
// certified oracle, generated polynomials against the oracle on their
// strided sample, and every verify mismatch record is re-derived.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--setup-only]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones and writes the span file. The line before it records the
// run's environment, seed and input digest.
//
//===----------------------------------------------------------------------===//

#include "core/PolyGen.h"
#include "fp/FPFormat.h"
#include "libm/RangeReduction.h"
#include "libm/rfp.h"
#include "oracle/OracleCache.h"
#include "oracle/OracleFast.h"
#include "serve/Serve.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "verify/Verify.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

using namespace rfp;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

float bitsToFloat(uint32_t B) {
  float X;
  std::memcpy(&X, &B, sizeof(X));
  return X;
}

uint32_t floatToBits(float X) {
  uint32_t B;
  std::memcpy(&B, &X, sizeof(B));
  return B;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

unsigned processorCount() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// splitmix64: every input of a run derives from (seed, stream).
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Stream)
      : State(Seed * 0x9e3779b97f4a7c15ull + Stream * 0xd1b54a32d192ed03ull) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint32_t u32() { return static_cast<uint32_t>(next() >> 32); }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Spans: kept in memory, written once when the run ends.
//===----------------------------------------------------------------------===//

struct SpanRec {
  const char *Name;
  int64_t Parent; ///< index of the enclosing span, -1 for a root
  uint64_t Req;   ///< serve request id shared by its spans, 0 otherwise
  int64_t T0, T1; ///< ns since process start
  uint64_t Count; ///< elements or calls the span covers
};

class Tracer {
public:
  explicit Tracer(Clock::time_point Epoch) : Epoch(Epoch) {}

  bool On = false;

  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }
  int64_t current() const { return Stack.empty() ? -1 : Stack.back(); }

  /// Opens a span nested in the innermost open one.
  int64_t open(const char *Name, uint64_t Count) {
    if (!On)
      return -1;
    int64_t Id = add(Name, current(), 0, ns(Clock::now()), 0, Count);
    Stack.push_back(Id);
    return Id;
  }
  void close(int64_t Id) {
    if (Id < 0)
      return;
    Spans[static_cast<size_t>(Id)].T1 = ns(Clock::now());
    Stack.pop_back();
  }
  /// Records an already-finished span with an explicit parent.
  int64_t add(const char *Name, int64_t Parent, uint64_t Req, int64_t T0,
              int64_t T1, uint64_t Count) {
    Spans.push_back({Name, Parent, Req, T0, T1, Count});
    return static_cast<int64_t>(Spans.size() - 1);
  }

  /// Writes the run record \p Info, every span with its self time (duration
  /// minus the union of its children's intervals), and per-name totals.
  bool write(const std::string &Path,
             const std::function<void(json::Writer &)> &Info) const;

private:
  Clock::time_point Epoch;
  std::vector<SpanRec> Spans;
  std::vector<int64_t> Stack;
};

bool Tracer::write(const std::string &Path,
                   const std::function<void(json::Writer &)> &Info) const {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::vector<std::pair<int64_t, int64_t>> Iv;
    for (size_t C : Children[I])
      Iv.emplace_back(std::max(Spans[C].T0, Spans[I].T0),
                      std::min(Spans[C].T1, Spans[I].T1));
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, End = INT64_MIN;
    for (auto [A, B] : Iv) {
      A = std::max(A, End);
      if (B > A) {
        Covered += B - A;
        End = B;
      }
    }
    Self[I] = Spans[I].T1 - Spans[I].T0 - Covered;
  }

  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  json::Writer J(F);
  J.beginObject();
  J.key("info");
  J.beginObject();
  Info(J);
  J.endObject();
  J.key("columns");
  J.inlineNext();
  J.beginArray();
  for (const char *C : {"id", "parent", "req", "name", "start_ns", "end_ns",
                        "self_ns", "count"})
    J.value(C);
  J.endArray();
  J.key("spans");
  J.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    J.inlineNext();
    J.beginArray();
    J.value(static_cast<uint64_t>(I));
    J.value(S.Parent);
    J.value(S.Req);
    J.value(S.Name);
    J.value(S.T0);
    J.value(S.T1);
    J.value(Self[I]);
    J.value(S.Count);
    J.endArray();
  }
  J.endArray();
  J.key("by_name");
  J.beginObject();
  std::vector<std::string> Names;
  for (const SpanRec &S : Spans)
    if (std::find(Names.begin(), Names.end(), S.Name) == Names.end())
      Names.push_back(S.Name);
  for (const std::string &Name : Names) {
    uint64_t Count = 0, Elems = 0;
    int64_t Total = 0, SelfTotal = 0;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Name == Spans[I].Name) {
        ++Count;
        Elems += Spans[I].Count;
        Total += Spans[I].T1 - Spans[I].T0;
        SelfTotal += Self[I];
      }
    J.key(Name.c_str());
    J.inlineNext();
    J.beginObject();
    J.kv("spans", Count);
    J.kv("count", Elems);
    J.key("total_s");
    J.valueDouble(static_cast<double>(Total) * 1e-9);
    J.key("self_s");
    J.valueDouble(static_cast<double>(SelfTotal) * 1e-9);
    J.endObject();
  }
  J.endObject();
  J.endObject();
  J.finish();
  return std::fclose(F) == 0;
}

class Scope {
public:
  Scope(Tracer &T, const char *Name, uint64_t Count = 0)
      : T(T), Id(T.open(Name, Count)) {}
  ~Scope() { T.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int64_t Id;
};

//===----------------------------------------------------------------------===//
// Output checks and metrics.
//===----------------------------------------------------------------------===//

/// Output checks. A check that two paths of the program agree bit for bit,
/// or that a stage kept its contract, fails the run when it fails. A result
/// that disagrees with the certified oracle is a misround of the library:
/// every one is counted (failed_frac, libm.misround_frac) and noted with
/// its input, and the run fails when they go beyond what the library at
/// the time of writing is known to do (see KnownMisrounds).
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Misrounds = 0;
  std::vector<std::string> Notes;

  void note(const std::string &What) {
    if (Notes.size() < 16)
      Notes.push_back(What);
  }
  void record(const char *What, uint64_t N, uint64_t Bad) {
    Attempted += N;
    Failed += Bad;
    if (Bad)
      note(std::string(What) + ": " + std::to_string(Bad) + "/" +
           std::to_string(N));
  }
  /// Counts \p Bad misrounds among \p N oracle comparisons.
  void recordMisrounds(const char *What, uint64_t N, uint64_t Bad) {
    Attempted += N;
    Misrounds += Bad;
    if (Bad)
      note(std::string(What) + ": " + std::to_string(Bad) + "/" +
           std::to_string(N));
  }
};

/// Inputs the library is known to misround on: runSweep's strided tier
/// finds the first three (exp and log at fp31/fp32, directed modes), and
/// the oracle sample of eval-inrange seed 54 finds the last
/// (exp/estrin-fma/fp32/rn).
constexpr std::pair<ElemFunc, uint32_t> KnownMisrounds[] = {
    {ElemFunc::Exp, 0x3d3a3d3au},
    {ElemFunc::Exp, 0xbfcfbfcfu},
    {ElemFunc::Log, 0x3f993f99u},
    {ElemFunc::Exp, 0x41198961u},
};

bool knownMisround(ElemFunc F, uint32_t X) {
  return std::find(std::begin(KnownMisrounds), std::end(KnownMisrounds),
                   std::make_pair(F, X)) != std::end(KnownMisrounds);
}

/// runSweep's mismatches over FP(10..32, 8) (exhaustive to 16 bits, then
/// stride 65537): all on the listed inputs. A smaller plan has none.
constexpr uint64_t KnownSweepMismatches = 84;

/// Off the list, the library misrounds inputs that polynomial generation
/// never sampled. A 30M-sample scan of the evaluation mix measured
/// 1.6e-5 of exp/estrin-fma/fp32/rn inputs and 1.6e-6 of the other
/// variants', so a run's 29,440 oracle samples expect 0.26 unlisted
/// disagreements, and more than this many has probability 3e-7. A change
/// that misrounds more often than that fails the run.
constexpr uint64_t UnlistedMisroundTolerance = 5;

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

enum class Stage { Eval, Generate, Verify };

struct WorkloadSpec {
  const char *Name;
  /// Evaluation inputs uniform over all 2^32 encodings instead of over
  /// each function's polynomial path.
  bool WholeDomain;
  /// The pipeline that gets most of the run; the others run a small probe
  /// configuration so every metric is measured on every workload.
  Stage Focus;
  /// The run is Cycles cycles of every stage. A stage runs for its share of
  /// --seconds, spread evenly over the cycles, and at least once a cycle; a
  /// share of 0 runs it exactly once a cycle (a focus generate or verify).
  unsigned Cycles;
  double EvalShare, GenShare, VerifyShare;
};

constexpr WorkloadSpec Workloads[] = {
    {"eval-inrange", false, Stage::Eval, 5, 0.55, 0.3, 0.15},
    {"eval-wholedomain", true, Stage::Eval, 5, 0.55, 0.3, 0.15},
    {"generate", false, Stage::Generate, 5, 0.2, 0, 0.15},
    {"verify", false, Stage::Verify, 3, 0.15, 0.2, 0},
};

// Evaluation mix: every available (function, scheme) pair x four formats x
// five modes, one chunk each, plus as many chunks of the hot variant.
constexpr size_t ChunkElems = 512;
constexpr unsigned OddWidth = 27;
constexpr size_t OracleSamplesPerChunk = 32;
// Serve traffic: small requests carved out of the chunks.
constexpr size_t ReqElems = 16;
constexpr size_t ClosedWindow = 64;
// Each evaluation round runs WindowsPerRound open-loop windows, each after
// ClosedPerOpen closed-loop windows. The windows are short, so a run has
// many and a burst of host stalls spoils few (DisturbedUs). An open window
// holds ~800 requests, so ~8 lie beyond its p99.
constexpr unsigned WindowsPerRound = 4;
constexpr unsigned ClosedPerOpen = 2;
constexpr double ClosedWindowS = 0.01;
constexpr double OpenWindowS = 0.05;
/// The traced closed loop keeps the spans of one request in this many
/// (hundreds of thousands complete per run); the open loop keeps all.
constexpr uint64_t ClosedSpanEvery = 16;
/// Fixed offered load of the open loop (requests/s, Poisson arrivals).
constexpr double OpenRatePerS = 16000.0;
/// An open-loop window in which the load generator submitted this late was
/// disturbed by the host: its figures say more about the host than about
/// the server. Host disturbance comes in bursts longer than a window, so
/// the closed-loop windows just before a disturbed open window count as
/// disturbed too; their own generator cannot tell, as there the host
/// stalls the server's workers. The serve metrics are medians over the
/// undisturbed windows (over all when none is).
constexpr double DisturbedUs = 500.0;
/// The open loop must stay an unloaded measurement: its offered elements/s
/// may be at most this share of the run's closed-loop throughput, and each
/// window's queue must drain within OpenDrainLimitS of its last arrival.
constexpr double OpenMaxUtilisation = 0.5;
constexpr double OpenDrainLimitS = 0.1;

/// Median of the window samples \p V whose disturbance gauge \p GaugeUs
/// stayed within DisturbedUs, or of all of them when none did.
double undisturbedMedian(const std::vector<double> &V,
                         const std::vector<double> &GaugeUs) {
  std::vector<double> Kept;
  for (size_t I = 0; I < V.size(); ++I)
    if (GaugeUs[I] <= DisturbedUs)
      Kept.push_back(V[I]);
  return median(Kept.empty() ? V : Kept);
}

// Generation: exp (exp family) and log (log family); the probe runs exp.
constexpr ElemFunc GenFuncs[] = {ElemFunc::Exp, ElemFunc::Log};
constexpr size_t GenFuncsProbe = 1;
constexpr uint32_t GenStrideFocus = 262147;
constexpr uint32_t GenStrideProbe = 1048573;
/// bench_polygen's window, so generate_s relates to BENCH_polygen.json.
constexpr uint32_t GenBoundaryWindow = 256;
// Verification plans (formats FP(k, 8), MinBits <= k <= MaxBits).
constexpr unsigned VerifyMaxBitsFocus = 32;
constexpr unsigned VerifyMaxBitsProbe = 12;
// Per-layer passes (traced run only).
constexpr size_t LayerPoolElems = 16384;
constexpr size_t OracleFastSample = 4096;
constexpr size_t OracleExactSample = 128;

const VariantKey HotKey{ElemFunc::Exp, EvalScheme::EstrinFMA,
                        FPFormat::float32(), RoundingMode::NearestEven};

struct Chunk {
  VariantKey K;
  size_t Off;
};

struct Mix {
  std::vector<float> In;
  std::vector<Chunk> Chunks;
  size_t size() const { return In.size(); }
};

std::vector<VariantKey> mixVariants() {
  const FPFormat Formats[] = {FPFormat::float32(), FPFormat::bfloat16(),
                              FPFormat::tensorfloat32(),
                              FPFormat::withBits(OddWidth)};
  std::vector<VariantKey> V;
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme S : AllEvalSchemes) {
      if (!available(F, S))
        continue;
      for (const FPFormat &Fmt : Formats)
        for (RoundingMode M : StandardRoundingModes)
          V.push_back(VariantKey{F, S, Fmt, M});
    }
  return V;
}

/// A float on \p F's polynomial path, uniform over those bit patterns.
float inRangeInput(ElemFunc F, Rng &R) {
  for (;;) {
    float X = bitsToFloat(R.u32());
    if (!std::isnan(X) && libm::reduceInput(F, X).PolyPath)
      return X;
  }
}

Mix buildMix(uint64_t Seed, bool WholeDomain) {
  Rng R(Seed, 1);
  std::vector<VariantKey> Keys = mixVariants();
  Keys.insert(Keys.end(), Keys.size(), HotKey);
  for (size_t I = Keys.size(); I > 1; --I)
    std::swap(Keys[I - 1], Keys[R.below(I)]);
  Mix M;
  M.In.resize(Keys.size() * ChunkElems);
  for (size_t C = 0; C < Keys.size(); ++C) {
    size_t Off = C * ChunkElems;
    M.Chunks.push_back({Keys[C], Off});
    for (size_t I = 0; I < ChunkElems; ++I)
      M.In[Off + I] = WholeDomain ? bitsToFloat(R.u32())
                                  : inRangeInput(Keys[C].Func, R);
  }
  return M;
}

/// FNV-1a over the generated inputs and the chunk variants.
uint64_t digest(const Mix &M) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mixin = [&H](const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I)
      H = (H ^ B[I]) * 0x100000001b3ull;
  };
  Mixin(M.In.data(), M.In.size() * sizeof(float));
  for (const Chunk &C : M.Chunks) {
    unsigned Tag[4] = {static_cast<unsigned>(C.K.Func),
                       static_cast<unsigned>(C.K.Scheme),
                       C.K.Format.totalBits(),
                       static_cast<unsigned>(C.K.Mode)};
    Mixin(Tag, sizeof(Tag));
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Set-up.
//===----------------------------------------------------------------------===//

struct SetupTimes {
  double DispatchS = 0, OracleInitS = 0, PoolS = 0, ServerS = 0, TotalS = 0;
};

/// Threads of a focus generate or verify stage. On a shared VM whose host
/// is busy, a process that keeps every vCPU busy stalls on all of them, and
/// one that leaves a vCPU free barely stalls (README.md), so no stage keeps
/// more than nproc - 1 threads busy.
unsigned workThreads(unsigned Nproc) { return std::max(1u, Nproc - 1); }

serve::ServerOptions serverOptions(unsigned Nproc) {
  serve::ServerOptions O;
  // The load generator is the closed loop's other busy thread.
  O.Threads = std::max(1u, Nproc - 2);
  return O;
}

/// Everything the library does once per process before the first timed
/// call: batch dispatch resolution (with the Knuth parity probe), oracle
/// constants, the worker pool, and Server start-up plus one round trip.
SetupTimes runSetup(Clock::time_point Epoch, unsigned Nproc, Tracer &T,
                    std::unique_ptr<serve::Server> &Srv) {
  Scope S(T, "setup");
  SetupTimes ST;
  auto T0 = Clock::now();
  {
    Scope D(T, "setup.dispatch");
    libm::activeBatchISA();
  }
  auto T1 = Clock::now();
  {
    Scope O(T, "setup.oracle_init");
    const uint32_t X = floatToBits(1.5f);
    for (ElemFunc F : AllElemFuncs) {
      uint64_t Enc = 0;
      oracle_fast::tryEvalToOdd34(F, X, Enc);
      oracle_cache::evalToOdd34(F, X, /*AllowFast=*/false);
    }
    oracle_cache::clear();
  }
  auto T2 = Clock::now();
  {
    Scope P(T, "setup.pool");
    ThreadPool::global();
  }
  auto T3 = Clock::now();
  {
    Scope V(T, "setup.server");
    Srv = std::make_unique<serve::Server>(serverOptions(Nproc));
    float In[ReqElems];
    for (size_t I = 0; I < ReqElems; ++I)
      In[I] = 1.0f + static_cast<float>(I) / 16.0f;
    serve::Request R;
    R.Key = HotKey;
    R.In = In;
    R.N = ReqElems;
    Srv->submit(std::move(R)).get();
  }
  auto T4 = Clock::now();
  ST.DispatchS = secondsBetween(T0, T1);
  ST.OracleInitS = secondsBetween(T1, T2);
  ST.PoolS = secondsBetween(T2, T3);
  ST.ServerS = secondsBetween(T3, T4);
  ST.TotalS = secondsBetween(Epoch, T4);
  return ST;
}

//===----------------------------------------------------------------------===//
// Evaluate: per-call, batch, serve.
//===----------------------------------------------------------------------===//

/// ns per element of one run of \p Pass over \p Elems elements.
template <typename Fn> double passNs(size_t Elems, Fn Pass) {
  auto A = Clock::now();
  Pass();
  return secondsBetween(A, Clock::now()) * 1e9 / static_cast<double>(Elems);
}

struct Reference {
  std::vector<uint64_t> Enc;
  std::vector<double> H;
};

/// Chunk-by-chunk timing of the passes over the mix. A stall of the host
/// only ever slows the chunks it lands in, so a pass metric sums each
/// chunk's fastest time over the run's passes.
struct PassTimes {
  std::vector<double> BestNs; ///< fastest time of each chunk so far
  std::vector<double> PassNs; ///< ns per element of each whole pass

  double bestNsPerElem(const Mix &M) const {
    double Sum = 0;
    for (double Ns : BestNs)
      Sum += Ns;
    return Sum / static_cast<double>(M.size());
  }
};

/// Runs \p Body on every chunk of \p M in one span per chunk, and returns
/// the pass's ns per element.
template <typename Fn>
double timedPass(const Mix &M, PassTimes &PT, Tracer &T, const char *Span,
                 Fn Body) {
  if (PT.BestNs.empty())
    PT.BestNs.assign(M.Chunks.size(), INFINITY);
  auto Start = Clock::now();
  for (size_t C = 0; C < M.Chunks.size(); ++C) {
    Scope S(T, Span, ChunkElems);
    auto A = Clock::now();
    Body(M.Chunks[C]);
    PT.BestNs[C] =
        std::min(PT.BestNs[C], secondsBetween(A, Clock::now()) * 1e9);
  }
  PT.PassNs.push_back(secondsBetween(Start, Clock::now()) * 1e9 /
                      static_cast<double>(M.size()));
  return PT.PassNs.back();
}

double scalarPass(const Mix &M, Reference &Ref, PassTimes &PT, Tracer &T) {
  return timedPass(M, PT, T, "rfp.eval.chunk", [&](const Chunk &C) {
    const float *In = M.In.data() + C.Off;
    uint64_t *Enc = Ref.Enc.data() + C.Off;
    double *H = Ref.H.data() + C.Off;
    for (size_t I = 0; I < ChunkElems; ++I) {
      EvalResult R = eval(C.K, In[I]);
      Enc[I] = R.Enc;
      H[I] = R.H;
    }
  });
}

double batchPass(const Mix &M, std::vector<uint64_t> &Enc, PassTimes &PT,
                 Tracer &T) {
  return timedPass(M, PT, T, "rfp.evalBatch", [&](const Chunk &C) {
    evalBatch(C.K, M.In.data() + C.Off, Enc.data() + C.Off, ChunkElems);
  });
}

uint64_t countDiffs(const uint64_t *A, const uint64_t *B, size_t N) {
  uint64_t Bad = 0;
  for (size_t I = 0; I < N; ++I)
    Bad += A[I] != B[I];
  return Bad;
}

/// One request in flight.
struct Pending {
  uint64_t Id;
  size_t Off;
  Clock::time_point Due, Sub0, Sub1;
  std::future<serve::Result> F;
};

struct ServeLoop {
  ServeLoop(const Mix &M, const Reference &Ref, serve::Server &Srv, Tracer &T,
            Checks &C, uint64_t Seed)
      : M(M), Ref(Ref), Srv(Srv), T(T), C(C), R(Seed, 2) {}

  const Mix &M;
  const Reference &Ref;
  serve::Server &Srv;
  Tracer &T;
  Checks &C;
  Rng R;
  uint64_t NextId = 1;
  uint64_t SpanEvery = 1; ///< traced runs keep spans of every N-th request
  /// Per-request submit and wait times, kept by the traced run only (an
  /// untraced run completes millions of requests, and peak_rss_mb must not
  /// grow with throughput).
  std::vector<double> SubmitUs, WaitUs;

  Pending submit(Clock::time_point Due) {
    const Chunk &Ch = M.Chunks[R.below(M.Chunks.size())];
    size_t Off = Ch.Off + R.below(ChunkElems / ReqElems) * ReqElems;
    serve::Request Req;
    Req.Key = Ch.K;
    Req.In = M.In.data() + Off;
    Req.N = ReqElems;
    Pending P{NextId++, Off, Due, Clock::now(), {}, {}};
    P.F = Srv.submit(std::move(Req));
    P.Sub1 = Clock::now();
    return P;
  }

  /// Retires a ready request: bit-compares both outputs with rfp::eval and
  /// records its spans. Returns the completion time.
  Clock::time_point complete(Pending &P) {
    serve::Result Res = P.F.get();
    auto Done = Clock::now();
    bool Ok = Res.Enc.size() == ReqElems && Res.H.size() == ReqElems &&
              std::memcmp(Res.Enc.data(), Ref.Enc.data() + P.Off,
                          ReqElems * sizeof(uint64_t)) == 0 &&
              std::memcmp(Res.H.data(), Ref.H.data() + P.Off,
                          ReqElems * sizeof(double)) == 0;
    C.record("serve result == rfp::eval", ReqElems, Ok ? 0 : ReqElems);
    if (!T.On)
      return Done;
    SubmitUs.push_back(secondsBetween(P.Sub0, P.Sub1) * 1e6);
    WaitUs.push_back(secondsBetween(P.Sub1, Done) * 1e6);
    if (P.Id % SpanEvery == 0) {
      int64_t Req = T.add("serve.request", T.current(), P.Id, T.ns(P.Due),
                          T.ns(Done), ReqElems);
      T.add("serve.submit", Req, P.Id, T.ns(P.Sub0), T.ns(P.Sub1), ReqElems);
      T.add("serve.wait", Req, P.Id, T.ns(P.Sub1), T.ns(Done), ReqElems);
    }
    return Done;
  }

  /// Closed loop: a fixed window of outstanding requests; returns elems/s.
  double closed(double BudgetS) {
    Scope S(T, "serve.closed_loop");
    SpanEvery = ClosedSpanEvery;
    std::deque<Pending> Q;
    uint64_t Elems = 0;
    auto Start = Clock::now();
    while (secondsBetween(Start, Clock::now()) < BudgetS) {
      Q.push_back(submit(Clock::now()));
      Elems += ReqElems;
      if (Q.size() >= ClosedWindow) {
        complete(Q.front());
        Q.pop_front();
      }
    }
    for (Pending &P : Q)
      complete(P);
    return static_cast<double>(Elems) / secondsBetween(Start, Clock::now());
  }

  struct OpenResult {
    std::vector<double> LatUs, LagUs;
    size_t PeakInFlight = 0;
    double DrainS = 0; ///< from the last arrival until every request is done
    double MaxLagUs = 0;
  };

  /// Open loop: Poisson arrivals at OpenRatePerS; latency runs from each
  /// request's due time, so generator stalls are charged to the requests.
  /// Between arrivals the generator blocks on its oldest request (requests
  /// finish in about arrival order) instead of spinning on a processor the
  /// server's workers need; a 1 ns timer slack keeps its wake-ups on time.
  OpenResult open(double BudgetS) {
    Scope S(T, "serve.open_loop");
    SpanEvery = 1;
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    OpenResult Out;
    std::deque<Pending> Q;
    auto Gap = [this] {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(-std::log1p(-R.unit()) /
                                        OpenRatePerS));
    };
    auto Start = Clock::now();
    auto End = Start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(BudgetS));
    auto Due = Start + Gap();
    auto LastArrival = Start;
    bool Submitting = true;
    while (Submitting || !Q.empty()) {
      if (Submitting && Clock::now() >= Due) {
        Q.push_back(submit(Due));
        Out.LagUs.push_back(secondsBetween(Due, Q.back().Sub0) * 1e6);
        Out.MaxLagUs = std::max(Out.MaxLagUs, Out.LagUs.back());
        Out.PeakInFlight = std::max(Out.PeakInFlight, Q.size());
        Due += Gap();
        if (Due >= End) {
          Submitting = false;
          LastArrival = Q.back().Sub1;
        }
        continue;
      }
      if (Q.empty()) {
        std::this_thread::sleep_until(Due);
        continue;
      }
      if (Submitting &&
          Q.front().F.wait_until(Due) != std::future_status::ready)
        continue;
      for (auto It = Q.begin(); It != Q.end();) {
        if (It->F.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++It;
          continue;
        }
        Out.LatUs.push_back(secondsBetween(It->Due, complete(*It)) * 1e6);
        It = Q.erase(It);
      }
    }
    Out.DrainS = secondsBetween(LastArrival, Clock::now());
    prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
    return Out;
  }
};

/// A seeded sample of every chunk against the certified RO_34 oracle,
/// rounded to the chunk's format and mode.
uint64_t checkOracle(const Mix &M, const Reference &Ref, uint64_t Seed,
                     Checks &C) {
  Rng R(Seed, 3);
  const FPFormat F34 = FPFormat::fp34();
  uint64_t N = 0, Bad = 0, Unlisted = 0;
  for (const Chunk &Ch : M.Chunks)
    for (size_t J = 0; J < OracleSamplesPerChunk; ++J) {
      size_t I = Ch.Off + R.below(ChunkElems);
      const uint32_t X = floatToBits(M.In[I]);
      uint64_t RO = oracle_cache::evalToOdd34(Ch.K.Func, X);
      uint64_t Want = Ch.K.Format.roundDouble(F34.decode(RO), Ch.K.Mode);
      ++N;
      if (Want == Ref.Enc[I])
        continue;
      ++Bad;
      Unlisted += !knownMisround(Ch.K.Func, X);
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "%s x=0x%08x got=0x%llx want=0x%llx",
                    variantKeyName(Ch.K).c_str(), X,
                    static_cast<unsigned long long>(Ref.Enc[I]),
                    static_cast<unsigned long long>(Want));
      C.note(Buf);
    }
  C.recordMisrounds("rfp::eval == oracle", N, Bad);
  C.record("unlisted oracle disagreements within tolerance", 1,
           Unlisted > UnlistedMisroundTolerance ? 1 : 0);
  return N;
}

//===----------------------------------------------------------------------===//
// Generate.
//===----------------------------------------------------------------------===//

struct GenRun {
  double TotalS = 0, PrepareS = 0, OracleS = 0, IntervalS = 0, MergeS = 0;
  double SchemeS[4] = {0, 0, 0, 0};
  double LPSolveS = 0, PrepareCpu = 0, GenerateCpu = 0;
  double GenerateWall = 0;
  /// Wall time of each prepare() and generate(S) call, in call order.
  std::vector<double> PhaseS;
  uint64_t Constraints = 0, LPPivots = 0, LPWarm = 0, LPCold = 0;
  uint64_t FastAccepts = 0, FastFallbacks = 0;
  std::vector<GeneratedImpl> Impls;
  std::vector<uint32_t> Strides;
};

const char *schemeSpanName(EvalScheme S) {
  static const char *const Names[4] = {
      "core.generate.horner", "core.generate.knuth", "core.generate.estrin",
      "core.generate.estrin-fma"};
  return Names[static_cast<int>(S)];
}

GenRun runGenerate(std::span<const ElemFunc> Funcs, uint32_t Stride,
                   unsigned Threads, Tracer &T) {
  Scope Sc(T, "generate");
  GenRun G;
  for (ElemFunc F : Funcs) {
    oracle_cache::clear();
    GenConfig Cfg;
    Cfg.SampleStride = Stride;
    Cfg.BoundaryWindow = GenBoundaryWindow;
    Cfg.NumThreads = Threads;
    PolyGenerator Gen(F, Cfg);
    double Cpu0 = cpuSeconds();
    auto T0 = Clock::now();
    {
      Scope P(T, "core.prepare");
      Gen.prepare();
    }
    auto T1 = Clock::now();
    double Cpu1 = cpuSeconds();
    const PolyGenerator::PrepareBreakdown &B = Gen.prepareBreakdown();
    G.PrepareS += secondsBetween(T0, T1);
    G.PhaseS.push_back(secondsBetween(T0, T1));
    G.OracleS += B.OracleMs * 1e-3;
    G.IntervalS += B.IntervalMs * 1e-3;
    G.MergeS += B.MergeMs * 1e-3;
    G.FastAccepts += B.FastAccepts;
    G.FastFallbacks += B.FastFallbacks;
    G.Constraints += Gen.numConstraints();
    G.PrepareCpu += Cpu1 - Cpu0;
    for (EvalScheme S : AllEvalSchemes) {
      if (!available(F, S))
        continue;
      auto A = Clock::now();
      {
        Scope P(T, schemeSpanName(S));
        G.Impls.push_back(Gen.generate(S));
      }
      G.PhaseS.push_back(secondsBetween(A, Clock::now()));
      G.SchemeS[static_cast<int>(S)] += G.PhaseS.back();
      const GeneratedImpl::GenStats &St = G.Impls.back().Stats;
      G.LPSolveS += St.LPTimeMs * 1e-3;
      G.LPPivots += St.LPPivots;
      G.LPWarm += St.LPWarmSolves;
      G.LPCold += St.LPColdSolves;
    }
    G.GenerateCpu += cpuSeconds() - Cpu1;
    G.GenerateWall += secondsBetween(T1, Clock::now());
    G.TotalS += secondsBetween(T0, Clock::now());
  }
  return G;
}

/// Each generated implementation must succeed and, on every strided input
/// its generator sampled, round to the certified RO_34 result.
void checkGenerated(const GenRun &G, uint32_t Stride, Checks &C) {
  const FPFormat F34 = FPFormat::fp34();
  for (const GeneratedImpl &Impl : G.Impls) {
    C.record("generate() succeeded", 1, Impl.Success ? 0 : 1);
    if (!Impl.Success)
      continue;
    uint64_t N = 0, Bad = 0;
    for (uint64_t B = 0; B <= 0xFFFFFFFFull; B += Stride) {
      float X = bitsToFloat(static_cast<uint32_t>(B));
      if (std::isnan(X) || !libm::reduceInput(Impl.Func, X).PolyPath)
        continue;
      uint64_t Want =
          oracle_cache::evalToOdd34(Impl.Func, static_cast<uint32_t>(B));
      ++N;
      Bad += F34.roundDouble(Impl.evalH(X), RoundingMode::ToOdd) != Want;
    }
    C.record("generated polynomial == oracle", N, Bad);
  }
}

/// Later iterations must reproduce the first bit for bit.
bool sameImpls(const GenRun &A, const GenRun &B) {
  if (A.Impls.size() != B.Impls.size())
    return false;
  for (size_t I = 0; I < A.Impls.size(); ++I) {
    const GeneratedImpl &X = A.Impls[I], &Y = B.Impls[I];
    if (X.Success != Y.Success || X.NumPieces != Y.NumPieces ||
        X.Specials.size() != Y.Specials.size())
      return false;
    for (int P = 0; P < X.NumPieces; ++P)
      if (X.Pieces[P].Coeffs.size() != Y.Pieces[P].Coeffs.size() ||
          std::memcmp(X.Pieces[P].Coeffs.data(), Y.Pieces[P].Coeffs.data(),
                      X.Pieces[P].Coeffs.size() * sizeof(double)) != 0)
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Verify.
//===----------------------------------------------------------------------===//

struct VerifyRun {
  double WallS = 0, Cpu = 0;
  std::vector<double> PartS; ///< wall time of each runSweep call
  verify::SweepReport Report;
};

verify::SweepConfig sweepConfig(unsigned MaxBits, unsigned Threads) {
  verify::SweepConfig C;
  C.MinBits = 10;
  C.MaxBits = MaxBits;
  C.Threads = Threads;
  return C;
}

/// One sweep of the plan, as one runSweep call per (function, scheme) pair
/// in plan order: the units, their order and the oracle cache (cleared
/// once) are those of a single call over the whole plan. Each call is
/// timed; the reports are merged.
VerifyRun runVerify(const verify::SweepConfig &Cfg, Tracer &T) {
  Scope S(T, "verify.sweep");
  oracle_cache::clear();
  VerifyRun V;
  double Cpu0 = cpuSeconds();
  auto T0 = Clock::now();
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme Sch : AllEvalSchemes) {
      if (!available(F, Sch))
        continue;
      verify::SweepConfig Part = Cfg;
      Part.Funcs = {F};
      Part.Schemes = {Sch};
      Scope P(T, "verify.runSweep");
      auto A = Clock::now();
      verify::SweepReport R = verify::runSweep(Part);
      V.PartS.push_back(secondsBetween(A, Clock::now()));
      V.Report.Paths = R.Paths;
      V.Report.Lanes = R.Lanes;
      V.Report.Units.insert(V.Report.Units.end(), R.Units.begin(),
                            R.Units.end());
    }
  V.Report.accumulate();
  V.WallS = secondsBetween(T0, Clock::now());
  V.Cpu = cpuSeconds() - Cpu0;
  return V;
}

/// The sweep covered its whole plan, and every mismatch it recorded is a
/// real misround: rfp::eval returns the recorded result and the oracle the
/// recorded expectation, and the two differ.
void checkSweep(const verify::SweepConfig &Cfg, const VerifyRun &V,
                Checks &C) {
  uint64_t Planned = 0;
  for (const verify::Unit &U : verify::planUnits(Cfg))
    Planned += U.NumEncodings;
  C.record("runSweep covered its plan", 1,
           Planned == V.Report.Inputs ? 0 : 1);
  C.record("runSweep mismatches within the known count", 1,
           V.Report.Mismatches > KnownSweepMismatches ? 1 : 0);
  const FPFormat F34 = FPFormat::fp34();
  uint64_t N = 0, Bad = 0, Unlisted = 0;
  for (const verify::UnitOutcome &O : V.Report.Units)
    for (const verify::Mismatch &Mm : O.R.Records) {
      VariantKey K{AllElemFuncs[Mm.Func], AllEvalSchemes[Mm.Scheme],
                   FPFormat::withBits(Mm.FormatBits),
                   StandardRoundingModes[Mm.Mode]};
      uint64_t Got = eval(K, bitsToFloat(Mm.XBits)).Enc;
      uint64_t Want = K.Format.roundDouble(
          F34.decode(oracle_cache::evalToOdd34(K.Func, Mm.XBits)), K.Mode);
      bool ScalarRecord =
          Mm.Path == static_cast<uint8_t>(verify::EvalPath::ScalarCore);
      ++N;
      Bad += Want != Mm.WantEnc || Got == Want ||
             (ScalarRecord && Got != Mm.GotEnc);
      Unlisted += !knownMisround(K.Func, Mm.XBits);
    }
  C.record("verify mismatch records re-derived", N, Bad);
  C.record("verify mismatch records on the known list", N, Unlisted);
}

//===----------------------------------------------------------------------===//
// Per-layer passes (traced run).
//===----------------------------------------------------------------------===//

template <typename Fn> double medianNsPerElem(size_t Elems, Fn Body) {
  std::vector<double> Ns;
  for (int Rep = 0; Rep < 3; ++Rep)
    Ns.push_back(passNs(Elems, Body));
  return median(Ns);
}

void measureLibmLayers(const Mix &M, const Reference &Ref, Checks &C,
                       Tracer &T, std::vector<Metric> &Out) {
  Scope Sc(T, "layers.libm");
  std::vector<float> Pool[6];
  for (const Chunk &Ch : M.Chunks) {
    std::vector<float> &P = Pool[static_cast<int>(Ch.K.Func)];
    if (P.size() < LayerPoolElems)
      P.insert(P.end(), M.In.begin() + Ch.Off,
               M.In.begin() + Ch.Off + ChunkElems);
  }
  std::vector<double> H(LayerPoolElems);
  volatile double Sink = 0;
  for (EvalScheme S : AllEvalSchemes) {
    for (ElemFunc F : AllElemFuncs) {
      if (!available(F, S))
        continue;
      const std::vector<float> &P = Pool[static_cast<int>(F)];
      Scope Sp(T, "rfp.evalH", P.size());
      double Ns = medianNsPerElem(P.size(), [&] {
        double Acc = 0;
        for (float X : P)
          Acc += evalH(F, S, X);
        Sink = Acc;
      });
      Out.push_back({std::string("libm.h_ns.") + elemFuncName(F) + "." +
                         evalSchemeName(S),
                     Ns, "ns"});
    }
  }
  for (int Pinned = 0; Pinned < 2; ++Pinned)
    for (EvalScheme S : AllEvalSchemes) {
      Scope Sp(T, Pinned ? "rfp.evalBatchH.scalarisa" : "rfp.evalBatchH");
      std::vector<double> Ns;
      for (int Rep = 0; Rep < 3; ++Rep) {
        double Sec = 0;
        size_t Elems = 0;
        for (ElemFunc F : AllElemFuncs) {
          if (!available(F, S))
            continue;
          const std::vector<float> &P = Pool[static_cast<int>(F)];
          auto A = Clock::now();
          if (Pinned)
            evalBatchH(libm::BatchISA::Scalar, F, S, P.data(), H.data(),
                       P.size());
          else
            evalBatchH(F, S, P.data(), H.data(), P.size());
          Sec += secondsBetween(A, Clock::now());
          Elems += P.size();
        }
        Ns.push_back(Sec * 1e9 / static_cast<double>(Elems));
      }
      Out.push_back({std::string(Pinned ? "libm.batch_h_ns_scalarisa."
                                        : "libm.batch_h_ns.") +
                         evalSchemeName(S),
                     median(Ns), "ns"});
    }

  uint64_t Special = 0;
  for (double V : Ref.H)
    Special += !std::isfinite(V) || V == 0.0 ||
               std::fabs(V) >= libm::HugeResult ||
               std::fabs(V) <= libm::TinyResult;
  Out.push_back({"libm.special_share",
                 static_cast<double>(Special) /
                     static_cast<double>(Ref.H.size()),
                 "frac"});

  std::vector<uint64_t> Enc(M.size());
  {
    Scope Sp(T, "FPFormat::roundDouble", M.size());
    Out.push_back({"fp.round_ns_per_elem", medianNsPerElem(M.size(), [&] {
                     for (const Chunk &Ch : M.Chunks)
                       for (size_t I = Ch.Off; I < Ch.Off + ChunkElems; ++I)
                         Enc[I] = Ch.K.Format.roundDouble(Ref.H[I], Ch.K.Mode);
                   }),
                   "ns"});
  }
  C.record("roundDouble(H) == rfp::eval encoding", M.size(),
           countDiffs(Enc.data(), Ref.Enc.data(), M.size()));
}

void measureOracleLayers(uint64_t Seed, Tracer &T, std::vector<Metric> &Out) {
  Scope Sc(T, "layers.oracle");
  Rng R(Seed, 4);
  std::vector<std::pair<ElemFunc, uint32_t>> Fast, Exact;
  for (ElemFunc F : GenFuncs) {
    for (size_t I = 0; I < OracleFastSample / 2; ++I)
      Fast.emplace_back(F, floatToBits(inRangeInput(F, R)));
    for (size_t I = 0; I < OracleExactSample / 2; ++I)
      Exact.emplace_back(F, floatToBits(inRangeInput(F, R)));
  }
  volatile uint64_t Sink = 0;
  {
    Scope Sp(T, "oracle_fast::tryEvalToOdd34", Fast.size());
    Out.push_back({"oracle.fast_ns_per_input",
                   medianNsPerElem(Fast.size(),
                                   [&] {
                                     uint64_t Acc = 0, Enc = 0;
                                     for (auto [F, X] : Fast)
                                       if (oracle_fast::tryEvalToOdd34(F, X,
                                                                       Enc))
                                         Acc += Enc;
                                     Sink = Acc;
                                   }),
                   "ns"});
  }
  {
    Scope Sp(T, "oracle_cache::evalToOdd34.exact", Exact.size());
    Out.push_back({"oracle.exact_ns_per_input",
                   medianNsPerElem(Exact.size(),
                                   [&] {
                                     oracle_cache::clear();
                                     uint64_t Acc = 0;
                                     for (auto [F, X] : Exact)
                                       Acc += oracle_cache::evalToOdd34(
                                           F, X, /*AllowFast=*/false);
                                     Sink = Acc;
                                   }),
                   "ns"});
  }
  oracle_cache::clear();
}

//===----------------------------------------------------------------------===//
// Command line and report.
//===----------------------------------------------------------------------===//

struct Options {
  const WorkloadSpec *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  bool SetupOnly = false;
  std::string TraceDir = ".";
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--setup-only") {
      O.SetupOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      for (const WorkloadSpec &W : Workloads)
        if (V == W.Name)
          O.W = &W;
      if (!O.W)
        return false;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End != V.c_str() && *End == '\0';
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End != V.c_str() && *End == '\0' && O.Seconds > 0 &&
                    O.Seconds <= 120;
    } else if (A == "--trace") {
      HaveTrace = V == "0" || V == "1";
      O.Trace = V == "1";
    } else if (A == "--trace-dir") {
      O.TraceDir = V;
    } else {
      return false;
    }
  }
  return O.SetupOnly || (O.W && HaveSeed && HaveSeconds && HaveTrace);
}

void kvDouble(json::Writer &J, const char *Key, double V) {
  J.key(Key);
  J.valueDouble(V);
}

void kvSamples(json::Writer &J, const char *Key, const std::vector<double> &V) {
  J.key(Key);
  J.beginArray();
  for (double X : V)
    J.valueDouble(X);
  J.endArray();
}

/// The result line: {correct, attempted, failed, metrics}.
void writeResult(bool Correct, const Checks &C,
                 const std::vector<Metric> &Ms) {
  json::Writer J(stdout);
  J.inlineNext();
  J.beginObject();
  J.kv("correct", Correct);
  J.kv("attempted", C.Attempted);
  J.kv("failed", C.Failed);
  J.key("metrics");
  J.beginObject();
  for (const Metric &M : Ms) {
    J.key(M.Name.c_str());
    J.beginObject();
    kvDouble(J, "value", M.Value);
    J.kv("unit", M.Unit);
    J.endObject();
  }
  J.endObject();
  J.endObject();
  J.finish();
}

std::string compiledISAs() {
  verify::SweepConfig C;
  C.AllISAs = true;
  std::string S;
  for (const verify::PathSpec &P : verify::planPaths(C))
    if (P.Path == verify::EvalPath::Batch)
      S += std::string(S.empty() ? "" : ",") + libm::batchISAName(P.ISA);
  return S;
}

/// The library's environment variables as the program saw them; unset
/// ones are left out.
void kvEnv(json::Writer &J) {
  J.key("env");
  J.beginObject();
  for (const char *Name : {"RFP_BATCH_ISA", "RFP_THREADS", "RFP_SERVE_FLUSH_US",
                           "RFP_BATCH_PARITY_PROBE", "RFP_TRACE"})
    if (const char *V = std::getenv(Name))
      J.kv(Name, V);
  J.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  const auto Epoch = Clock::now();
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <eval-inrange|eval-wholedomain|"
                 "generate|verify> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>] | --setup-only\n");
    return 2;
  }
  const unsigned Nproc = processorCount();
  Tracer T(Epoch);
  T.On = Opt.Trace;
  std::unique_ptr<serve::Server> Srv;

  if (Opt.SetupOnly) {
    SetupTimes ST = runSetup(Epoch, Nproc, T, Srv);
    json::Writer J(stdout);
    J.inlineNext();
    J.beginObject();
    kvDouble(J, "setup_s", ST.TotalS);
    J.endObject();
    J.finish();
    return 0;
  }

  const WorkloadSpec &W = *Opt.W;
  const double S = Opt.Seconds;
  const uint64_t ZivBefore = telemetry::counterValue("mp.ziv.retries");
  const uint64_t OracleZivBefore =
      telemetry::counterValue("oracle.ziv.retries");
  std::vector<Metric> E2E, Layer;
  Checks Chk;

  SetupTimes ST = runSetup(Epoch, Nproc, T, Srv);

  // ---- Measure ----------------------------------------------------------
  // The run is a few cycles, and every cycle runs every stage: evaluation
  // rounds, then generate, then verify. Each stage's samples so spread over
  // the whole run. An evaluation round is a per-call pass, a batch pass and
  // WindowsPerRound open-loop windows, each after ClosedPerOpen closed-loop
  // ones.
  Mix M = buildMix(Opt.Seed, W.WholeDomain);
  const uint64_t Digest = digest(M);
  Reference Ref{std::vector<uint64_t>(M.size()), std::vector<double>(M.size())};
  std::vector<uint64_t> BatchEnc(M.size());
  PassTimes Scalar, Batch;
  double TraceOverhead = 0;
  if (T.On) {
    // The same passes untraced and traced: the difference is the overhead.
    std::vector<double> Plain, Traced;
    for (int Rep = 0; Rep < 3; ++Rep) {
      PassTimes Tmp;
      T.On = false;
      Plain.push_back(scalarPass(M, Ref, Tmp, T) +
                      batchPass(M, BatchEnc, Tmp, T));
      T.On = true;
      Traced.push_back(scalarPass(M, Ref, Tmp, T) +
                       batchPass(M, BatchEnc, Tmp, T));
    }
    TraceOverhead = median(Traced) / median(Plain) - 1.0;
  }
  ServeLoop SL(M, Ref, *Srv, T, Chk, Opt.Seed);
  // Per window: closed-loop throughput; open-loop p50, p99 and drain time;
  // and the open-loop generator's worst lateness, the disturbance gauge of
  // each window (ClosedGaugeUs for the closed ones).
  std::vector<double> ServeRate, ClosedGaugeUs, P50, P99, OpenLagUs, DrainS;
  std::vector<double> LagUs, OpenLatUs; // per request
  size_t PeakInFlight = 0;
  auto EvalRound = [&] {
    Scope R(T, "eval.round");
    scalarPass(M, Ref, Scalar, T);
    batchPass(M, BatchEnc, Batch, T);
    for (unsigned Wi = 0; Wi < WindowsPerRound; ++Wi) {
      for (unsigned Ci = 0; Ci < ClosedPerOpen; ++Ci)
        ServeRate.push_back(SL.closed(ClosedWindowS));
      ServeLoop::OpenResult O = SL.open(OpenWindowS);
      ClosedGaugeUs.insert(ClosedGaugeUs.end(), ClosedPerOpen, O.MaxLagUs);
      P50.push_back(quantile(O.LatUs, 0.50));
      P99.push_back(quantile(O.LatUs, 0.99));
      OpenLagUs.push_back(O.MaxLagUs);
      LagUs.insert(LagUs.end(), O.LagUs.begin(), O.LagUs.end());
      OpenLatUs.insert(OpenLatUs.end(), O.LatUs.begin(), O.LatUs.end());
      DrainS.push_back(O.DrainS);
      PeakInFlight = std::max(PeakInFlight, O.PeakInFlight);
    }
  };

  // A focus stage runs on workThreads(nproc) threads. A probe runs on one:
  // its pool jobs are small, and on a shared host their timing swings
  // between two modes with where the pool's threads land.
  const uint32_t Stride =
      W.Focus == Stage::Generate ? GenStrideFocus : GenStrideProbe;
  const unsigned GenThreads =
      W.Focus == Stage::Generate ? workThreads(Nproc) : 1;
  const unsigned VerifyThreads =
      W.Focus == Stage::Verify ? workThreads(Nproc) : 1;
  const verify::SweepConfig VCfg = sweepConfig(
      W.Focus == Stage::Verify ? VerifyMaxBitsFocus : VerifyMaxBitsProbe,
      VerifyThreads);
  const std::span<const ElemFunc> Funcs =
      W.Focus == Stage::Generate ? std::span(GenFuncs)
                                 : std::span(GenFuncs).first(GenFuncsProbe);
  std::vector<GenRun> Gens;
  std::vector<VerifyRun> Sweeps;
  // Runs Body at least once, then until the stage has used its share of
  // the run up to the end of cycle Cy. The traced run does each stage once
  // a cycle.
  double EvalSpent = 0, GenSpent = 0, VerifySpent = 0;
  auto RunStage = [&](double Share, double &Spent, unsigned Cy, auto Body) {
    auto Start = Clock::now();
    do
      Body();
    while (!T.On && Spent + secondsBetween(Start, Clock::now()) <
                        S * Share * (Cy + 1) / W.Cycles);
    Spent += secondsBetween(Start, Clock::now());
  };
  for (unsigned Cy = 0; Cy < W.Cycles; ++Cy) {
    Scope Sc(T, "cycle");
    RunStage(W.EvalShare, EvalSpent, Cy, EvalRound);
    RunStage(W.GenShare, GenSpent, Cy, [&] {
      Gens.push_back(runGenerate(Funcs, Stride, GenThreads, T));
    });
    RunStage(W.VerifyShare, VerifySpent, Cy,
             [&] { Sweeps.push_back(runVerify(VCfg, T)); });
  }

  Chk.record("evalBatch encoding == rfp::eval", M.size(),
             countDiffs(BatchEnc.data(), Ref.Enc.data(), M.size()));
  serve::ServerStats SStats = Srv->stats();
  Srv.reset();
  const double ServeRateMedian = undisturbedMedian(ServeRate, ClosedGaugeUs);
  const double Utilisation =
      OpenRatePerS * static_cast<double>(ReqElems) / ServeRateMedian;
  Chk.record("open loop offered at most half of saturation", 1,
             Utilisation > OpenMaxUtilisation ? 1 : 0);
  Chk.record("open loop drained after its last arrival", DrainS.size(),
             static_cast<uint64_t>(std::count_if(
                 DrainS.begin(), DrainS.end(),
                 [](double D) { return D > OpenDrainLimitS; })));
  const uint64_t OracleSamples = checkOracle(M, Ref, Opt.Seed, Chk);

  E2E.push_back({"scalar_ns_per_elem", Scalar.bestNsPerElem(M), "ns"});
  E2E.push_back({"batch_ns_per_elem", Batch.bestNsPerElem(M), "ns"});
  E2E.push_back({"serve_elems_per_s", ServeRateMedian, "1/s"});
  E2E.push_back({"serve_p50_us", undisturbedMedian(P50, OpenLagUs), "us"});
  E2E.push_back({"serve_p99_us", undisturbedMedian(P99, OpenLagUs), "us"});

  if (T.On) {
    Layer.push_back({"setup.dispatch_s", ST.DispatchS, "s"});
    Layer.push_back({"setup.oracle_init_s", ST.OracleInitS, "s"});
    Layer.push_back({"setup.pool_start_s", ST.PoolS, "s"});
    Layer.push_back({"setup.server_start_s", ST.ServerS, "s"});
    measureLibmLayers(M, Ref, Chk, T, Layer);
    Layer.push_back({"serve.submit_us.p50", quantile(SL.SubmitUs, 0.5), "us"});
    Layer.push_back({"serve.submit_us.p99", quantile(SL.SubmitUs, 0.99), "us"});
    Layer.push_back({"serve.wait_us.p50", quantile(SL.WaitUs, 0.5), "us"});
    Layer.push_back({"serve.wait_us.p99", quantile(SL.WaitUs, 0.99), "us"});
    Layer.push_back(
        {"serve.mean_batch_width", SStats.meanBatchWidth(), "elems"});
    Layer.push_back({"serve.coalesced_frac",
                     SStats.Batches
                         ? static_cast<double>(SStats.CoalescedBatches) /
                               static_cast<double>(SStats.Batches)
                         : 0.0,
                     "frac"});
    Layer.push_back({"serve.overhead_ns_per_elem",
                     1e9 / ServeRateMedian - Batch.bestNsPerElem(M),
                     "ns"});
    Layer.push_back({"serve.gen_lag_us", quantile(LagUs, 0.99), "us"});
    measureOracleLayers(Opt.Seed, T, Layer);
  }

  checkGenerated(Gens.front(), Stride, Chk);
  for (size_t I = 1; I < Gens.size(); ++I)
    Chk.record("generate() repeats bit for bit", 1,
               sameImpls(Gens.front(), Gens[I]) ? 0 : 1);
  // As the passes do per chunk, generate_s sums each call's fastest time
  // over the iterations.
  std::vector<double> GenTotals;
  for (const GenRun &G : Gens)
    GenTotals.push_back(G.TotalS);
  double GenBestS = 0;
  for (size_t P = 0; P < Gens.front().PhaseS.size(); ++P) {
    double Best = INFINITY;
    for (const GenRun &G : Gens)
      Best = std::min(Best, G.PhaseS[P]);
    GenBestS += Best;
  }
  E2E.push_back({"generate_s", GenBestS, "s"});
  if (T.On) {
    // All stage times from one iteration (the median one), so the prepare
    // parts add up to core.prepare_s exactly.
    std::vector<size_t> Order(Gens.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Gens[A].TotalS < Gens[B].TotalS;
    });
    const GenRun &G = Gens[Order[Order.size() / 2]];
    Layer.push_back({"core.prepare_s", G.PrepareS, "s"});
    Layer.push_back({"core.prepare.oracle_s", G.OracleS, "s"});
    Layer.push_back({"core.prepare.interval_s", G.IntervalS, "s"});
    Layer.push_back({"core.prepare.merge_s", G.MergeS, "s"});
    Layer.push_back({"core.prepare.unattributed_s",
                     G.PrepareS - G.OracleS - G.IntervalS - G.MergeS, "s"});
    for (EvalScheme Sch : AllEvalSchemes)
      Layer.push_back({std::string("core.generate_s.") + evalSchemeName(Sch),
                       G.SchemeS[static_cast<int>(Sch)], "s"});
    Layer.push_back({"core.constraints", static_cast<double>(G.Constraints),
                     "count"});
    Layer.push_back({"core.prepare_cpu_util",
                     G.PrepareCpu / (G.PrepareS * GenThreads), "frac"});
    Layer.push_back({"core.generate_cpu_util",
                     G.GenerateCpu / (G.GenerateWall * GenThreads), "frac"});
    Layer.push_back({"lp.solve_s", G.LPSolveS, "s"});
    Layer.push_back({"lp.pivots", static_cast<double>(G.LPPivots), "count"});
    Layer.push_back({"lp.warm_solves", static_cast<double>(G.LPWarm), "count"});
    Layer.push_back({"lp.cold_solves", static_cast<double>(G.LPCold), "count"});
    Layer.push_back({"oracle.fast_accept_frac",
                     static_cast<double>(G.FastAccepts) /
                         static_cast<double>(G.FastAccepts + G.FastFallbacks),
                     "frac"});
  }

  checkSweep(VCfg, Sweeps.front(), Chk);
  for (size_t I = 1; I < Sweeps.size(); ++I)
    Chk.record("runSweep repeats its mismatch count", 1,
               Sweeps[I].Report.Mismatches == Sweeps.front().Report.Mismatches
                   ? 0
                   : 1);
  std::vector<double> SweepTimes;
  for (const VerifyRun &V : Sweeps)
    SweepTimes.push_back(V.WallS);
  // As for generate: the sum of each runSweep call's fastest time.
  double SweepBestS = 0;
  for (size_t P = 0; P < Sweeps.front().PartS.size(); ++P) {
    double Best = INFINITY;
    for (const VerifyRun &V : Sweeps)
      Best = std::min(Best, V.PartS[P]);
    SweepBestS += Best;
  }
  E2E.push_back({"verify_s", SweepBestS, "s"});
  const verify::SweepReport &VR = Sweeps.front().Report;
  if (T.On) {
    std::vector<double> UnitMs;
    for (const verify::UnitOutcome &O : VR.Units)
      UnitMs.push_back(O.R.Millis);
    double Cpu = 0, Wall = 0;
    for (const VerifyRun &V : Sweeps) {
      Cpu += V.Cpu;
      Wall += V.WallS;
    }
    Layer.push_back({"verify.oracle_exact_frac",
                     static_cast<double>(VR.OracleExact) /
                         static_cast<double>(VR.OracleExact + VR.OracleFast),
                     "frac"});
    Layer.push_back({"verify.cpu_util", Cpu / (Wall * VerifyThreads), "frac"});
    Layer.push_back({"verify.unit_ms.p50", quantile(UnitMs, 0.5), "ms"});
    Layer.push_back({"verify.unit_ms.max", quantile(UnitMs, 1.0), "ms"});
    Layer.push_back({"verify.comparisons", static_cast<double>(VR.Comparisons),
                     "count"});
    Layer.push_back({"verify.mismatches", static_cast<double>(VR.Mismatches),
                     "count"});
    Layer.push_back({"verify.mismatch_frac",
                     static_cast<double>(VR.Mismatches) /
                         static_cast<double>(VR.Comparisons),
                     "frac"});
    Layer.push_back({"mp.ziv_retries",
                     static_cast<double>(
                         telemetry::counterValue("mp.ziv.retries") - ZivBefore),
                     "count"});
    Layer.push_back(
        {"oracle.ziv_retries",
         static_cast<double>(telemetry::counterValue("oracle.ziv.retries") -
                             OracleZivBefore),
         "count"});
    Layer.push_back({"libm.misround_frac",
                     static_cast<double>(Chk.Misrounds) /
                         static_cast<double>(OracleSamples),
                     "frac"});
    Layer.push_back(
        {"failed_frac",
         static_cast<double>(Chk.Failed + Chk.Misrounds + VR.Mismatches) /
             static_cast<double>(Chk.Attempted + VR.Comparisons),
         "frac"});
    Layer.push_back({"trace.overhead_frac", TraceOverhead, "frac"});
  }

  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  E2E.insert(E2E.begin(), Metric{"setup_s", ST.TotalS, "s"});
  E2E.push_back(
      {"peak_rss_mb", static_cast<double>(U.ru_maxrss) / 1024.0, "MB"});

  // ---- Report -----------------------------------------------------------
  const std::vector<Metric> &Out = T.On ? Layer : E2E;
  bool Finite = true;
  for (const Metric &Mt : Out)
    Finite = Finite && std::isfinite(Mt.Value);
  char DigestHex[17];
  std::snprintf(DigestHex, sizeof(DigestHex), "%016llx",
                static_cast<unsigned long long>(Digest));
  auto WriteInfo = [&](json::Writer &J) {
    J.kv("workload", W.Name);
    J.kv("seed", Opt.Seed);
    J.kv("input_digest", static_cast<const char *>(DigestHex));
    J.kv("nproc", Nproc);
    J.kv("generate_threads", GenThreads);
    J.kv("verify_threads", VerifyThreads);
    J.kv("server_threads", serverOptions(Nproc).Threads);
    J.kv("active_isa", libm::batchISAName(libm::activeBatchISA()));
    J.kv("compiled_isas", compiledISAs());
    J.kv("compiler", PB_COMPILER);
    J.kv("flags", PB_FLAGS);
    kvEnv(J);
    J.key("mix");
    J.beginObject();
    J.kv("chunks", M.Chunks.size());
    J.kv("chunk_elems", ChunkElems);
    J.kv("whole_domain", W.WholeDomain);
    J.kv("oracle_samples", OracleSamples);
    J.endObject();
    J.key("serve");
    J.beginObject();
    J.kv("req_elems", ReqElems);
    J.kv("closed_window", ClosedWindow);
    kvDouble(J, "closed_window_s", ClosedWindowS);
    kvDouble(J, "open_window_s", OpenWindowS);
    kvDouble(J, "open_rate_per_s", OpenRatePerS);
    J.kv("eval_rounds", Scalar.PassNs.size());
    J.kv("open_requests", OpenLatUs.size());
    auto Undisturbed = [](const std::vector<double> &GaugeUs) {
      return static_cast<uint64_t>(
          std::count_if(GaugeUs.begin(), GaugeUs.end(),
                        [](double G) { return G <= DisturbedUs; }));
    };
    J.kv("closed_windows", ServeRate.size());
    J.kv("closed_undisturbed", Undisturbed(ClosedGaugeUs));
    J.kv("open_windows", P99.size());
    J.kv("open_undisturbed", Undisturbed(OpenLagUs));
    kvDouble(J, "closed_all_windows_elems_per_s", median(ServeRate));
    kvDouble(J, "open_all_windows_p50_us", median(P50));
    kvDouble(J, "open_all_windows_p99_us", median(P99));
    kvDouble(J, "open_utilisation", Utilisation);
    J.kv("open_peak_in_flight", PeakInFlight);
    kvDouble(J, "open_drain_max_s", quantile(DrainS, 1.0));
    kvDouble(J, "open_pooled_p50_us", quantile(OpenLatUs, 0.50));
    kvDouble(J, "open_pooled_p99_us", quantile(OpenLatUs, 0.99));
    kvDouble(J, "gen_lag_p99_us", quantile(LagUs, 0.99));
    J.endObject();
    J.key("generate");
    J.beginObject();
    J.kv("stride", Stride);
    J.kv("functions", Funcs.size());
    J.kv("iterations", Gens.size());
    J.endObject();
    J.key("verify");
    J.beginObject();
    J.kv("max_bits", VCfg.MaxBits);
    J.kv("sweeps", Sweeps.size());
    J.kv("comparisons", VR.Comparisons);
    J.kv("mismatches", VR.Mismatches);
    J.endObject();
    J.key("samples");
    J.beginObject();
    kvSamples(J, "scalar_pass_ns_per_elem", Scalar.PassNs);
    kvSamples(J, "batch_pass_ns_per_elem", Batch.PassNs);
    kvSamples(J, "serve_elems_per_s", ServeRate);
    kvSamples(J, "serve_p50_us", P50);
    kvSamples(J, "serve_p99_us", P99);
    kvSamples(J, "open_max_lag_us", OpenLagUs);
    kvSamples(J, "generate_s", GenTotals);
    kvSamples(J, "verify_s", SweepTimes);
    J.endObject();
    J.key("notes");
    J.beginArray();
    for (const std::string &N : Chk.Notes)
      J.value(N);
    J.endArray();
  };
  {
    json::Writer J(stdout);
    J.inlineNext();
    J.beginObject();
    J.key("info");
    J.beginObject();
    WriteInfo(J);
    J.endObject();
    J.endObject();
    J.finish();
  }

  if (T.On) {
    std::string Path = Opt.TraceDir + "/" + W.Name + ".spans.json";
    if (!T.write(Path, WriteInfo)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans written to %s\n", Path.c_str());
  }
  if (!Finite) {
    std::fprintf(stderr, "perfbench: a metric is not a finite number\n");
    return 1;
  }
  writeResult(Chk.Failed == 0, Chk, Out);
  std::fflush(stdout);
  return 0;
}

//===- tests/ServeTest.cpp - Serving-layer correctness --------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving layer's contract on top of the batch layer's: coalescing
// requests into shared kernel invocations must never change a single
// output bit. The differential suite pins H against the scalar per-call
// core and Enc against roundResult for every (function, scheme) variant,
// across output formats and all five standard rounding modes, for
// requests small enough to be coalesced and large enough to be split.
// Concurrency is pinned by a multi-submitter stress test and a
// lost-wakeup stress test (both run under TSan in CI) plus backpressure,
// flush, and shutdown-ordering cases.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "libm/rlibm.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <random>
#include <thread>
#include <vector>

using namespace rfp;
using namespace rfp::serve;

namespace {

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

float floatFromBits(uint32_t Bits) {
  float X;
  std::memcpy(&X, &Bits, sizeof(X));
  return X;
}

std::vector<float> stridedInputs(uint64_t Stride) {
  std::vector<float> Inputs;
  for (uint64_t B = 0; B < (1ull << 32); B += Stride)
    Inputs.push_back(floatFromBits(static_cast<uint32_t>(B)));
  return Inputs;
}

/// Checks one fulfilled result against the scalar core + roundResult.
void expectExact(const Result &Res, const Request &R) {
  ASSERT_EQ(Res.H.size(), R.N);
  ASSERT_EQ(Res.Enc.size(), R.N);
  for (size_t I = 0; I < R.N; ++I) {
    double Want = libm::evalCore(R.Key.Func, R.Key.Scheme, R.In[I]);
    ASSERT_EQ(bitsOf(Want), bitsOf(Res.H[I]))
        << elemFuncName(R.Key.Func) << "/" << evalSchemeName(R.Key.Scheme)
        << " x=" << R.In[I] << " I=" << I;
    ASSERT_EQ(libm::roundResult(Want, R.Key.Format, R.Key.Mode), Res.Enc[I])
        << elemFuncName(R.Key.Func) << "/" << evalSchemeName(R.Key.Scheme) << " "
        << roundingModeName(R.Key.Mode) << " x=" << R.In[I];
  }
}

TEST(ServeTest, DifferentialParityAllVariantsFormatsModes) {
  // One small span per variant, all in flight at once over two workers.
  std::vector<float> Pool = stridedInputs(50000017); // ~86 inputs, specials too
  Server S({.Threads = 2});
  const FPFormat Formats[] = {FPFormat::float32(), FPFormat::bfloat16(),
                              FPFormat::tensorfloat32(), FPFormat::withBits(27)};
  std::vector<std::pair<Request, std::future<Result>>> Outstanding;
  int FormatIdx = 0, ModeIdx = 0;
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme Sch : AllEvalSchemes) {
      if (!libm::variantInfo(F, Sch).Available)
        continue;
      // Rotate formats and modes across variants; every mode and format
      // is exercised several times.
      Request R;
      R.Key.Func = F;
      R.Key.Scheme = Sch;
      R.Key.Format = Formats[FormatIdx++ % 4];
      R.Key.Mode = StandardRoundingModes[ModeIdx++ % 5];
      R.In = Pool.data();
      R.N = Pool.size();
      std::future<Result> Fut = S.submit(R);
      Outstanding.emplace_back(std::move(R), std::move(Fut));
    }
  for (auto &[R, Fut] : Outstanding)
    expectExact(Fut.get(), R);
}

TEST(ServeTest, AllFiveModesOnOneVariant) {
  std::vector<float> Pool = stridedInputs(20000003);
  Server S;
  for (RoundingMode M : StandardRoundingModes)
    for (const FPFormat &Fmt :
         {FPFormat::float32(), FPFormat::bfloat16(), FPFormat::withBits(10)}) {
      Request R;
      R.Key.Func = ElemFunc::Log;
      R.Key.Scheme = EvalScheme::Knuth;
      R.Key.Format = Fmt;
      R.Key.Mode = M;
      R.In = Pool.data();
      R.N = Pool.size();
      expectExact(S.submit(R).get(), R);
    }
}

TEST(ServeTest, CoalescesSmallRequestsIntoWideBatches) {
  // Many tiny single-function requests submitted back to back to one
  // worker: requests that arrive while it is busy leave together, so the
  // mean batch width must exceed the per-request size (the same property
  // the CI smoke guard checks end to end via bench_serve).
  std::vector<float> Pool = stridedInputs(9000011);
  Server S({.Threads = 1});
  std::vector<std::future<Result>> Futs;
  const size_t ReqSize = 4;
  for (size_t At = 0; At + ReqSize <= Pool.size(); At += ReqSize) {
    Request R;
    R.Key.Func = ElemFunc::Exp;
    R.In = Pool.data() + At;
    R.N = ReqSize;
    Futs.push_back(S.submit(R));
  }
  for (auto &F : Futs)
    F.get();
  ServerStats St = S.stats();
  EXPECT_GT(St.Requests, 50u);
  EXPECT_GT(St.meanBatchWidth(), static_cast<double>(ReqSize));
  EXPECT_GT(St.CoalescedBatches, 0u);
}

TEST(ServeTest, ConcurrentSubmittersBitExact) {
  // Several threads hammer overlapping variants; every future must still
  // deliver scalar-core-exact results. This is the test CI runs under
  // TSan for the synchronization story.
  std::vector<float> Pool = stridedInputs(30000001);
  Server S({.Threads = 2});
  constexpr int NumThreads = 4, ReqsPerThread = 40;
  std::vector<std::thread> Threads;
  std::vector<int> Failures(NumThreads, 0);
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      const ElemFunc Funcs[] = {ElemFunc::Exp, ElemFunc::Log, ElemFunc::Exp2,
                                ElemFunc::Log2};
      for (int I = 0; I < ReqsPerThread; ++I) {
        Request R;
        R.Key.Func = Funcs[(T + I) % 4];
        R.Key.Scheme = I % 2 ? EvalScheme::EstrinFMA : EvalScheme::Knuth;
        R.Key.Mode = StandardRoundingModes[I % 5];
        R.Tenant = T % 2 ? "alpha" : "beta";
        size_t Off = static_cast<size_t>((T * 37 + I * 11) % 64);
        R.In = Pool.data() + Off;
        R.N = Pool.size() - Off;
        Result Res = S.submit(R).get();
        for (size_t J = 0; J < R.N; ++J) {
          double Want = libm::evalCore(R.Key.Func, R.Key.Scheme, R.In[J]);
          if (bitsOf(Want) != bitsOf(Res.H[J]) ||
              libm::roundResult(Want, R.Key.Format, R.Key.Mode) != Res.Enc[J]) {
            ++Failures[T];
            break;
          }
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;
}

TEST(ServeTest, OversizedRequestSplitsAcrossBatches) {
  // A request bigger than MaxBatchElems is served by several kernel
  // invocations scattering into one result; still exact, still one future.
  std::vector<float> Pool = stridedInputs(2000003);
  Server S({.Threads = 2, .MaxBatchElems = 256});
  Request R;
  R.Key.Func = ElemFunc::Exp10;
  R.Key.Scheme = EvalScheme::Estrin;
  R.In = Pool.data();
  R.N = Pool.size(); // ~2148 elements >> MaxBatchElems
  expectExact(S.submit(R).get(), R);
  EXPECT_GE(S.stats().Batches, Pool.size() / 256);
}

TEST(ServeTest, BackpressureBoundsTheQueue) {
  // A capacity smaller than the offered load: submits block instead of
  // growing the queue without bound, and everything still completes.
  std::vector<float> Pool = stridedInputs(9000011);
  Server S({.Threads = 1, .QueueCapacityElems = 64, .MaxBatchElems = 32});
  std::vector<std::future<Result>> Futs;
  for (int I = 0; I < 100; ++I) {
    Request R;
    R.Key.Func = ElemFunc::Log10;
    R.Key.Scheme = EvalScheme::Horner;
    R.In = Pool.data();
    R.N = 48;
    Futs.push_back(S.submit(R)); // blocks when 64-element queue is full
  }
  for (auto &F : Futs) {
    Result Res = F.get();
    ASSERT_EQ(Res.H.size(), 48u);
    ASSERT_EQ(bitsOf(libm::evalCore(ElemFunc::Log10, EvalScheme::Horner,
                                    Pool[0])),
              bitsOf(Res.H[0]));
  }
}

/// Requests over several (function, scheme) variants; R.In views \p Pool.
std::vector<Request> variedRequests(const std::vector<float> &Pool, int Count) {
  const ElemFunc Funcs[] = {ElemFunc::Exp, ElemFunc::Log2, ElemFunc::Exp10,
                            ElemFunc::Log};
  const EvalScheme Schemes[] = {EvalScheme::Horner, EvalScheme::EstrinFMA};
  std::vector<Request> Reqs(Count);
  for (int I = 0; I < Count; ++I) {
    Reqs[I].Key.Func = Funcs[I % 4];
    Reqs[I].Key.Scheme = Schemes[I / 4 % 2];
    Reqs[I].Key.Mode = StandardRoundingModes[I % 5];
    Reqs[I].In = Pool.data();
    Reqs[I].N = Pool.size();
  }
  return Reqs;
}

TEST(ServeTest, FlushDrainsEverythingQueued) {
  // One worker and a backlog over eight variants: when flush() returns,
  // every future submitted before it is ready.
  std::vector<float> Pool = stridedInputs(4000037); // ~1074 inputs
  Server S({.Threads = 1});
  std::vector<Request> Reqs = variedRequests(Pool, 64);
  std::vector<std::future<Result>> Futs;
  for (const Request &R : Reqs)
    Futs.push_back(S.submit(R));
  S.flush();
  for (size_t I = 0; I < Reqs.size(); ++I) {
    ASSERT_EQ(Futs[I].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << I;
    expectExact(Futs[I].get(), Reqs[I]);
  }
}

TEST(ServeTest, ShutdownFulfillsQueuedRequests) {
  // More work than one worker drains before the destructor runs: the
  // destructor must drain the backlog, not drop it.
  std::vector<float> Pool = stridedInputs(4000037);
  std::vector<Request> Reqs = variedRequests(Pool, 64);
  std::vector<std::future<Result>> Futs;
  {
    Server S({.Threads = 1});
    for (const Request &R : Reqs)
      Futs.push_back(S.submit(R));
  }
  for (size_t I = 0; I < Reqs.size(); ++I)
    expectExact(Futs[I].get(), Reqs[I]);
}

TEST(ServeTest, NoLostWakeups) {
  // submit() notifies only a parked worker no earlier notify targets,
  // and a worker may spin before it parks. A miscount there strands a
  // request with every worker asleep, so each round trip must finish
  // promptly. Random pauses meet a worker busy, spinning or about to stop
  // spinning; every 64th outlasts the spin, so the worker parks and must
  // be woken.
  std::vector<float> Pool = stridedInputs(40000007);
  auto roundTrips = [&](Server &S, int Count, unsigned Seed) {
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<int> PauseUs(0, 50);
    std::uniform_int_distribution<int> ParkPauseUs(IdleSpinUs,
                                                   IdleSpinUs + 200);
    int Stuck = 0;
    for (int I = 0; I < Count; ++I) {
      Request R;
      R.Key.Func = AllElemFuncs[I % 6];
      R.Key.Scheme = EvalScheme::EstrinFMA;
      R.In = Pool.data() + I % 64;
      R.N = 1 + I % 4;
      std::future<Result> Fut = S.submit(R);
      if (Fut.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
        ++Stuck;
        break;
      }
      Fut.get();
      // Spin rather than sleep: sleeps round up to the timer slack.
      auto Until = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(I % 64 == 63 ? ParkPauseUs(Rng)
                                                          : PauseUs(Rng));
      while (std::chrono::steady_clock::now() < Until) {
      }
    }
    return Stuck;
  };
  for (unsigned Threads : {1u, 2u}) {
    Server S({.Threads = Threads});
    EXPECT_EQ(roundTrips(S, 20000, Threads), 0) << Threads << " worker(s)";
  }
  Server S({.Threads = 2});
  constexpr int NumSubmitters = 4;
  std::vector<int> Stuck(NumSubmitters, 0);
  std::vector<std::thread> Submitters;
  for (int T = 0; T < NumSubmitters; ++T)
    Submitters.emplace_back([&, T] { Stuck[T] = roundTrips(S, 5000, 10 + T); });
  for (std::thread &T : Submitters)
    T.join();
  for (int T = 0; T < NumSubmitters; ++T)
    EXPECT_EQ(Stuck[T], 0) << "submitter " << T;
}

TEST(ServeTest, UnavailableVariantAndEmptyRequest) {
  Server S;
  Request Bad;
  Bad.Key.Func = ElemFunc::Log10;
  Bad.Key.Scheme = EvalScheme::Knuth; // not generated (paper Table 1: N/A)
  EXPECT_THROW(S.submit(Bad).get(), std::invalid_argument);

  Request Empty;
  Empty.Key.Func = ElemFunc::Exp;
  Empty.N = 0;
  Result Res = S.submit(Empty).get();
  EXPECT_TRUE(Res.H.empty());
  EXPECT_TRUE(Res.Enc.empty());
}

} // namespace

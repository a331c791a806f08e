//===- serve/Serve.cpp - Batched libm serving front-end -------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Implementation notes.
//
// Queues. One bounded queue per (function, scheme) variant -- 24 slots,
// of which the unavailable ones (log10/Knuth) reject at submit. A queue
// holds *slices*: (request, offset, length) views into submitted input
// spans, so one oversized request is drained as several batches and many
// small requests coalesce into one batch without copying anything at
// submit time. All queues share one mutex: the critical sections are
// pointer pushes and drains (no evaluation, no copying), and the whole
// point of the layer is that kernel work dwarfs queue bookkeeping.
//
// Draining. A queue is ready as soon as it is non-empty (Serve.h,
// "Batching policy"). A worker picks the deepest queue (so backlogs drain
// toward full ISA-width batches), cuts up to MaxBatchElems elements, and
// releases the lock before touching any element data. It then gathers
// the slices' inputs into a staging buffer, runs ONE evalBatch over the
// whole thing, scatters H back, rounding each slice into its request's
// format and mode with one FPFormat::roundDoubles call, and finally
// fulfils the requests whose last slice it scattered (each request
// carries an atomic countdown of unscattered elements). Scatters of
// different slices of one request write disjoint ranges, so no lock is
// held during evaluation or scatter.
//
// Spin, then park. A worker that runs dry polls Queued with the lock
// released for IdleSpinUs before it parks on WorkCV; at most one worker
// spins at a time, and none when there are as many workers as cores. A
// request arriving meanwhile is picked up without a thread wake-up (a few
// to hundreds of microseconds on a virtualised host).
//
// Wake rule. submit() notifies WorkCV only when a worker is parked (Idle)
// that no earlier notify already targets (Waking), spinner or not: the
// host may deschedule the spinner's core, and the woken worker is the
// request's second chance. No wake-up is lost: a worker rescans every
// queue under the lock before it spins or parks, and after its spin.
// Spurious wake-ups only make Waking undercount: an extra notify.
//
// Shutdown. The destructor marks stopping, wakes everyone, and joins;
// workers only exit once every queue is empty, so every accepted future
// is fulfilled. submit() after shutdown begins fails the future rather
// than blocking.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "libm/Batch.h"
#include "libm/rlibm.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace rfp;
using namespace rfp::serve;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int NumVariants = 6 * 4;

int variantIndex(ElemFunc F, EvalScheme S) {
  return static_cast<int>(F) * 4 + static_cast<int>(S);
}

/// One submitted request while in flight.
struct PendingReq {
  Result Res;
  std::promise<Result> Promise;
  const float *In = nullptr;
  FPFormat Format = FPFormat::float32();
  RoundingMode Mode = RoundingMode::NearestEven;
  Clock::time_point SubmitTime;
  /// Elements not yet scattered; the scatterer that reaches zero
  /// fulfills the promise.
  std::atomic<size_t> Remaining{0};
};

struct Slice {
  std::shared_ptr<PendingReq> Req;
  size_t Off = 0;
  size_t Len = 0;
};

struct VarQueue {
  std::deque<Slice> Slices;
  size_t Elems = 0;
};

double usBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::micro>(To - From).count();
}

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

} // namespace

struct Server::Impl {
  ServerOptions Opts;

  mutable std::mutex Mu;
  std::condition_variable WorkCV;     // workers: a queue became non-empty
  std::condition_variable CapacityCV; // submitters: space freed
  std::condition_variable IdleCV;     // flush(): drained and quiescent
  VarQueue Queues[NumVariants];
  bool Stopping = false;
  int InFlight = 0; // batches cut but not yet scattered
  int Idle = 0;     // workers parked on WorkCV
  int Waking = 0;   // parked workers already targeted by a notify
  bool MaySpin = false; // fewer workers than cores (Serve.h, IdleSpinUs)
  int Spinning = 0;     // workers polling Queued (0 or 1)
  std::atomic<size_t> Queued{0}; // elements in all queues; written under Mu
  std::vector<std::thread> Workers;

  // Exact per-server totals (the telemetry registry is process-global).
  std::atomic<uint64_t> StatRequests{0}, StatElems{0}, StatBatches{0},
      StatCoalesced{0};

  // Registered once; updates are lock-free thread-local shards.
  telemetry::Counter CRequests = telemetry::counter("serve.requests");
  telemetry::Counter CElems = telemetry::counter("serve.elems");
  telemetry::Counter CBatches = telemetry::counter("serve.batches");
  telemetry::Counter CCoalesced = telemetry::counter("serve.batch_coalesced");
  telemetry::Histogram HWidth = telemetry::histogram("serve.batch_width");
  telemetry::Histogram HDepth = telemetry::histogram("serve.queue_depth");
  telemetry::Histogram HLatency =
      telemetry::histogram("serve.request_latency_us");
  // Per-batch stage times; see Serve.h for what each stage covers.
  telemetry::Histogram HQueue = telemetry::histogram("serve.stage_us.queue");
  telemetry::Histogram HGather = telemetry::histogram("serve.stage_us.gather");
  telemetry::Histogram HKernel = telemetry::histogram("serve.stage_us.kernel");
  telemetry::Histogram HRoundScatter =
      telemetry::histogram("serve.stage_us.round_scatter");
  telemetry::Histogram HFulfil = telemetry::histogram("serve.stage_us.fulfil");
  telemetry::Counter CFunc[6] = {
      telemetry::counter("serve.requests.exp"),
      telemetry::counter("serve.requests.exp2"),
      telemetry::counter("serve.requests.exp10"),
      telemetry::counter("serve.requests.log"),
      telemetry::counter("serve.requests.log2"),
      telemetry::counter("serve.requests.log10"),
  };

  explicit Impl(ServerOptions O) : Opts(O) {
    if (Opts.MaxBatchElems == 0)
      Opts.MaxBatchElems = 1;
    unsigned N = ThreadPool::resolveThreads(Opts.Threads);
    MaySpin = N < std::thread::hardware_concurrency();
    Workers.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopping = true;
    }
    WorkCV.notify_all();
    CapacityCV.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  bool allIdle() const { return InFlight == 0 && Queued == 0; }

  void workerLoop() {
    std::vector<Slice> Batch;
    std::vector<float> Staging;
    std::vector<double> H;
    std::unique_lock<std::mutex> Lock(Mu);
    bool SpunDry = false; // spun since the last batch: park next time
    for (;;) {
      int Best = -1;
      for (int V = 0; V < NumVariants; ++V)
        if (Queues[V].Elems > 0 &&
            (Best < 0 || Queues[V].Elems > Queues[Best].Elems))
          Best = V;
      if (Best < 0) {
        if (Stopping)
          return;
        if (MaySpin && !SpunDry && Spinning == 0) {
          ++Spinning;
          Lock.unlock();
          const Clock::time_point Until =
              Clock::now() + std::chrono::microseconds(IdleSpinUs);
          while (Queued.load(std::memory_order_relaxed) == 0 &&
                 Clock::now() < Until)
            cpuRelax();
          // Blocking here would park the spinner behind a submitter.
          while (!Lock.try_lock())
            cpuRelax();
          --Spinning;
          SpunDry = true;
          continue;
        }
        SpunDry = false;
        ++Idle;
        WorkCV.wait(Lock);
        --Idle;
        if (Waking > 0)
          --Waking;
        continue;
      }

      // Cut up to MaxBatchElems from the chosen queue.
      VarQueue &Q = Queues[Best];
      Batch.clear();
      size_t Cut = 0;
      while (!Q.Slices.empty() && Cut < Opts.MaxBatchElems) {
        Slice &Front = Q.Slices.front();
        size_t Take = std::min(Front.Len, Opts.MaxBatchElems - Cut);
        if (Take == Front.Len) {
          Batch.push_back(std::move(Front));
          Q.Slices.pop_front();
        } else {
          Batch.push_back({Front.Req, Front.Off, Take});
          Front.Off += Take;
          Front.Len -= Take;
        }
        Cut += Take;
      }
      Q.Elems -= Cut;
      Queued.fetch_sub(Cut, std::memory_order_relaxed);
      SpunDry = false;
      ++InFlight;
      Lock.unlock();
      CapacityCV.notify_all();

      runBatch(static_cast<ElemFunc>(Best / 4),
               static_cast<EvalScheme>(Best % 4), Batch, Staging, H);

      Lock.lock();
      --InFlight;
      if (allIdle())
        IdleCV.notify_all();
    }
  }

  /// Gather -> one evalBatch -> round + scatter -> fulfil. No lock held.
  void runBatch(ElemFunc F, EvalScheme S, std::vector<Slice> &Batch,
                std::vector<float> &Staging, std::vector<double> &H) {
    size_t N = 0;
    for (const Slice &Sl : Batch)
      N += Sl.Len;
    // Before any promise is fulfilled, so stats() read after a get()
    // already counts the batch that served it.
    CBatches.inc();
    HWidth.record(static_cast<double>(N));
    StatBatches.fetch_add(1, std::memory_order_relaxed);
    if (Batch.size() > 1) {
      CCoalesced.inc();
      StatCoalesced.fetch_add(1, std::memory_order_relaxed);
    }

    Clock::time_point T0 = Clock::now();
    // The front slice is the batch's oldest: queues are FIFO.
    HQueue.record(usBetween(Batch.front().Req->SubmitTime, T0));
    Staging.resize(N);
    H.resize(N);
    size_t At = 0;
    for (const Slice &Sl : Batch) {
      std::memcpy(Staging.data() + At, Sl.Req->In + Sl.Off,
                  Sl.Len * sizeof(float));
      At += Sl.Len;
    }
    Clock::time_point T1 = Clock::now();

    libm::evalBatch(F, S, Staging.data(), H.data(), N);
    Clock::time_point T2 = Clock::now();

    At = 0;
    for (const Slice &Sl : Batch) {
      PendingReq &R = *Sl.Req;
      std::memcpy(R.Res.H.data() + Sl.Off, H.data() + At,
                  Sl.Len * sizeof(double));
      R.Format.roundDoubles(H.data() + At, R.Res.Enc.data() + Sl.Off, Sl.Len,
                            R.Mode);
      At += Sl.Len;
    }
    Clock::time_point T3 = Clock::now();

    for (Slice &Sl : Batch) {
      PendingReq &R = *Sl.Req;
      if (R.Remaining.fetch_sub(Sl.Len, std::memory_order_acq_rel) ==
          Sl.Len) {
        HLatency.record(
            std::chrono::duration_cast<std::chrono::microseconds>(
                T3 - R.SubmitTime)
                .count());
        R.Promise.set_value(std::move(R.Res));
      }
      Sl.Req.reset();
    }
    Clock::time_point T4 = Clock::now();

    HGather.record(usBetween(T0, T1));
    HKernel.record(usBetween(T1, T2));
    HRoundScatter.record(usBetween(T2, T3));
    HFulfil.record(usBetween(T3, T4));
  }

  std::future<Result> submit(Request R) {
    auto Req = std::make_shared<PendingReq>();
    std::future<Result> Fut = Req->Promise.get_future();

    if (!available(R.Key)) {
      Req->Promise.set_exception(std::make_exception_ptr(std::invalid_argument(
          std::string("variant not generated: ") + elemFuncName(R.Key.Func) +
          "/" + evalSchemeName(R.Key.Scheme))));
      return Fut;
    }

    CRequests.inc();
    CElems.add(R.N);
    CFunc[static_cast<int>(R.Key.Func)].inc();
    if (!R.Tenant.empty())
      telemetry::counter(("serve.tenant." + R.Tenant).c_str()).inc();
    StatRequests.fetch_add(1, std::memory_order_relaxed);
    StatElems.fetch_add(R.N, std::memory_order_relaxed);

    if (R.N == 0) {
      Req->Promise.set_value(Result{});
      return Fut;
    }

    Req->In = R.In;
    Req->Format = R.Key.Format;
    Req->Mode = R.Key.Mode;
    Req->SubmitTime = Clock::now();
    Req->Res.H.resize(R.N);
    Req->Res.Enc.resize(R.N);
    Req->Remaining.store(R.N, std::memory_order_relaxed);

    int V = variantIndex(R.Key.Func, R.Key.Scheme);
    bool Wake = false;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      VarQueue &Q = Queues[V];
      // Backpressure: wait for room; an oversized request is admitted
      // alone into an empty queue.
      CapacityCV.wait(Lock, [&] {
        return Stopping || Q.Elems == 0 ||
               Q.Elems + R.N <= Opts.QueueCapacityElems;
      });
      if (Stopping) {
        Req->Promise.set_exception(std::make_exception_ptr(
            std::runtime_error("serve::Server is shutting down")));
        return Fut;
      }
      Q.Slices.push_back({std::move(Req), 0, R.N});
      Q.Elems += R.N;
      Queued.fetch_add(R.N, std::memory_order_relaxed);
      HDepth.record(static_cast<double>(Q.Elems));
      if (Idle > Waking) {
        ++Waking;
        Wake = true;
      }
    }
    if (Wake)
      WorkCV.notify_one();
    return Fut;
  }

  void flush() {
    std::unique_lock<std::mutex> Lock(Mu);
    IdleCV.wait(Lock, [&] { return allIdle(); });
  }
};

Server::Server(ServerOptions Opts) : I(std::make_unique<Impl>(Opts)) {}

Server::~Server() = default;

std::future<Result> Server::submit(Request R) { return I->submit(std::move(R)); }

void Server::flush() { I->flush(); }

ServerStats Server::stats() const {
  ServerStats S;
  S.Requests = I->StatRequests.load(std::memory_order_relaxed);
  S.Elems = I->StatElems.load(std::memory_order_relaxed);
  S.Batches = I->StatBatches.load(std::memory_order_relaxed);
  S.CoalescedBatches = I->StatCoalesced.load(std::memory_order_relaxed);
  return S;
}

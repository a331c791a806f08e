//===- serve/Serve.h - Batched libm serving front-end ----------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An asynchronous evaluation front-end over the batch API: callers submit
/// heterogeneous requests (function x scheme x output format x rounding
/// mode) from any thread and receive a future; the server coalesces
/// pending requests into per-(function, scheme) queues, drains each queue
/// in ISA-width-friendly batches through one evalBatch call, and scatters
/// the results back to the per-request futures. Small requests from many
/// submitters amortize into wide kernel invocations -- the batch layer's
/// throughput without requiring any single caller to present a wide array.
///
/// Correctness contract: the H results a future delivers are
/// **bit-identical** to calling the scalar `<func>_<scheme>(float)` core
/// per element (inherited from the batch layer's parity contract, pinned
/// by ServeTest's differential suite), and each encoding is exactly
/// `Format.roundDouble(H, Mode)`. Coalescing therefore never changes a
/// single output bit; it only changes *when* work runs.
///
/// Batching policy: work-conserving. A queue is ready as soon as it is
/// non-empty, and an idle worker drains the deepest one, so a lone request
/// runs at once while requests that arrive during a busy spell coalesce
/// into the next batch -- batch width follows load, with no deadline or
/// target width to tune. A worker that runs dry may spin for IdleSpinUs
/// before it parks. Backpressure is a bounded per-queue element
/// count: submit() blocks while the target queue is full (a request
/// larger than the capacity is admitted alone into an empty queue rather
/// than rejected).
///
/// Observability (through support/Telemetry.h): serve.requests{,.<func>},
/// serve.tenant.<tenant>, serve.elems, serve.batches, serve.batch_width
/// and serve.queue_depth histograms, serve.batch_coalesced, the
/// serve.request_latency_us histogram (p50/p99 via histogramValue), and
/// one serve.stage_us.<stage> sample per batch: queue (age of the
/// batch's oldest slice when cut), gather, kernel (the evalBatch call),
/// round_scatter and fulfil (setting the finished requests' promises).
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SERVE_SERVE_H
#define RFP_SERVE_SERVE_H

#include "libm/rfp.h"

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

namespace rfp {
namespace serve {

/// One evaluation request: the variant, named by the same rfp::VariantKey
/// that rfp::eval / rfp::evalBatch and the verification engine use, plus
/// the input span -- which must stay alive and unmodified until the
/// returned future is ready.
struct Request {
  VariantKey Key;
  const float *In = nullptr;
  size_t N = 0;
  /// Optional attribution key for per-tenant metrics
  /// (serve.tenant.<Tenant> counters); empty disables attribution.
  std::string Tenant;
};

/// What a request's future delivers.
struct Result {
  /// H[i] is bit-identical to `<func>_<scheme>(In[i])`.
  std::vector<double> H;
  /// Enc[i] == Format.roundDouble(H[i], Mode): an encoding of Format.
  std::vector<uint64_t> Enc;
};

/// How long a worker that finds every queue empty polls for work before
/// it parks. One worker at a time spins, and only in a server with fewer
/// workers than cores (so the spinner never takes the submitter's core):
/// an idle server keeps at most one core busy, for this long.
constexpr unsigned IdleSpinUs = 1000;

struct ServerOptions {
  /// Drainer threads; 0 defers to RFP_THREADS / hardware_concurrency()
  /// (ThreadPool::resolveThreads).
  unsigned Threads = 0;
  /// Bounded-queue capacity in elements, per (function, scheme) queue.
  size_t QueueCapacityElems = 1 << 16;
  /// Largest element count handed to one evalBatch call.
  size_t MaxBatchElems = 4096;
};

/// Exact per-server totals (the telemetry registry aggregates across all
/// servers in the process; these do not).
struct ServerStats {
  uint64_t Requests = 0;
  uint64_t Elems = 0;
  uint64_t Batches = 0;
  /// Batches whose elements came from more than one request.
  uint64_t CoalescedBatches = 0;
  double meanBatchWidth() const {
    return Batches ? static_cast<double>(Elems) / static_cast<double>(Batches)
                   : 0.0;
  }
};

class Server {
public:
  explicit Server(ServerOptions Opts = {});
  /// Drains every queued request, then joins the drainer threads. Futures
  /// obtained from submit() are always fulfilled.
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Enqueues \p R and returns the future delivering its Result. Blocks
  /// while the target queue is at capacity. A request for an unavailable
  /// variant (variantInfo(F, S).Available == false) fails the future with
  /// std::invalid_argument; a request submitted during shutdown fails it
  /// with std::runtime_error.
  std::future<Result> submit(Request R);

  /// Returns once every queue is empty and no batch is running, so every
  /// future obtained before the call is ready.
  void flush();

  ServerStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace serve
} // namespace rfp

#endif // RFP_SERVE_SERVE_H

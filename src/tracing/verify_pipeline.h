// Batched per-hop verification pipeline (paper §4.3/§5.2, DESIGN.md §10).
//
// The trace filter no longer verifies delegate signatures inline: trace
// publications are *admitted* into a per-broker verification queue and the
// filter answers FilterVerdict::defer(). A drain stage later takes the
// backlog FIFO, groups it by delegate-key fingerprint, resolves the
// token-chain verdict once per key (through the TokenVerifyCache), so a
// burst of traces from one hosting broker pays the chain once instead of
// once per message; each message then pays one delegate-signature verify.
// Accepted messages re-enter routing via Broker::release_deferred
// in admission order; rejections go through Broker::reject_deferred and
// get the same misbehaviour accounting an inline rejection would.
//
// Ordering: the queue is FIFO and at most one drain pass is in flight at
// a time (the active flag clears only after the node-context apply), so
// messages are released in exactly their admission order — grouping by
// key reorders *verification work*, never *delivery*.
//
// Scheduling by backend:
//   * VirtualTimeNetwork (concurrent_dispatch() == false): every admission
//     posts a drain task in the broker's node context "as soon as
//     possible", which the backend runs at the same virtual timestamp.
//     All trace publications that arrive at one timestamp are verified in
//     one batch and released before time advances — runs are bit-for-bit
//     identical to each other, and message-for-message identical to the
//     inline filter. Verification::threads/batch_max/batch_delay are
//     ignored.
//   * RealTimeNetwork: with batch_delay == 0 a drain fires whenever the
//     stage is idle and the queue is non-empty (sparse traffic pays no
//     added wait; bursts batch anyway because admissions during a busy
//     drain pile up for the next pass). With batch_delay > 0 the queue
//     accumulates until it holds Verification::batch_max messages or the
//     oldest has waited batch_delay, whichever comes first. With
//     Verification::threads > 0 the drain runs on a worker pool (key
//     groups of one batch are verified concurrently); with 0 it is posted
//     to the node context.
//
// Threading: admit() runs in the broker's node context (it is called by
// the message filter). The token cache is touched only by the drain
// coordinator; successive drains are serialized through the queue mutex,
// so the cache still sees single-threaded access. stats() reads relaxed
// atomics and is safe from any thread. Like in-flight match jobs, drain
// tasks reference the broker: stop the network before destroying it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/pubsub/broker.h"
#include "src/tracing/config.h"
#include "src/tracing/token_verify_cache.h"
#include "src/transport/network.h"

namespace et::tracing {

/// One consistent read of a pipeline's batch-stage counters.
struct VerifyPipelineStats {
  std::uint64_t queued = 0;        // messages admitted into the queue
  std::uint64_t drains = 0;        // drain passes run
  std::uint64_t batched = 0;       // messages taken off the queue in batches
  std::uint64_t keys_deduped = 0;  // messages that shared a batch key group
                                   // with an earlier member (chain + context
                                   // amortized away)
  std::uint64_t max_drain_depth = 0;  // deepest backlog a drain observed
};

namespace internal {
/// Live pipeline counters; relaxed atomics, readable from any thread.
struct PipelineCounters {
  RelaxedCounter queued;
  RelaxedCounter drains;
  RelaxedCounter batched;
  RelaxedCounter keys_deduped;
  RelaxedMaxGauge max_drain_depth;

  [[nodiscard]] VerifyPipelineStats snapshot() const {
    return {queued.get(), drains.get(), batched.get(), keys_deduped.get(),
            max_drain_depth.get()};
  }
};
}  // namespace internal

class VerifyPipeline {
 public:
  /// Per-verdict hook, invoked in the broker's node context right before
  /// the verdict is applied — install_trace_filter uses it to keep the
  /// filter's accepted/rejected counters in step with deferred outcomes.
  using VerdictHook = std::function<void(bool accepted)>;

  /// `cache` may be nullptr (every batch runs the full chain per key).
  /// `config` is the merged TracingConfig::Verification block; threads are
  /// clamped to 0 unless `backend` reports concurrent_dispatch().
  VerifyPipeline(TrustAnchors anchors, transport::NetworkBackend& backend,
                 std::shared_ptr<TokenVerifyCache> cache,
                 TracingConfig::Verification config,
                 VerdictHook on_verdict = {});

  VerifyPipeline(const VerifyPipeline&) = delete;
  VerifyPipeline& operator=(const VerifyPipeline&) = delete;

  /// Joins the drain worker pool; the network must already be stopped.
  ~VerifyPipeline();

  /// Queues a trace publication whose cheap gates (topic grammar, token
  /// presence) already passed. Must run in `self`'s node context — the
  /// caller is the broker's message filter, which just answered kDefer
  /// for this message. `expected_topic` is the trace-topic UUID segment
  /// the publication topic named (the token must authorize exactly it).
  /// A pipeline instance serves one broker for its whole lifetime.
  void admit(pubsub::Broker& self, pubsub::Message m,
             std::string expected_topic, transport::NodeId from);

  /// Batch-stage counters; safe from any thread.
  [[nodiscard]] VerifyPipelineStats stats() const {
    return counters_.snapshot();
  }

  /// True when no message is queued and no drain is in flight. Real-time
  /// tests poll this (after stopping publishers) to know the backlog has
  /// fully resolved.
  [[nodiscard]] bool idle() const;

  /// Drain worker threads actually in use (0 after clamping).
  [[nodiscard]] int verify_threads() const { return pool_threads_; }

 private:
  struct Pending {
    pubsub::Message msg;
    transport::NodeId from = transport::kInvalidNode;
    std::string expected_topic;
  };
  struct Group;
  class Pool;

  /// Starts a drain if one should run now; called with `lock` held (it is
  /// released before any backend call).
  void maybe_start_drain(std::unique_lock<std::mutex>& lock);
  void start_drain_locked(std::unique_lock<std::mutex>& lock);
  /// Drain coordinator: batch, group, verify, commit cache stores, then
  /// apply (inline when already in the node context, else posted back).
  void run_drain();
  /// Resolves one key group; runs on the coordinator or a pool worker.
  void verify_group(Group& g, const std::vector<Pending>& batch,
                    std::vector<Status>& verdicts, TimePoint now) const;
  /// Applies verdicts in admission order. Node context only.
  void apply(std::vector<Pending>& batch, const std::vector<Status>& verdicts);

  const TrustAnchors anchors_;
  transport::NetworkBackend& backend_;
  const std::shared_ptr<TokenVerifyCache> cache_;
  const TracingConfig::Verification config_;
  const VerdictHook on_verdict_;
  const bool concurrent_;  // backend.concurrent_dispatch()
  int pool_threads_ = 0;
  std::unique_ptr<Pool> pool_;  // null when pool_threads_ == 0

  pubsub::Broker* broker_ = nullptr;  // bound on first admit
  transport::NodeId node_ = transport::kInvalidNode;

  mutable std::mutex mu_;
  std::deque<Pending> queue_;
  bool drain_active_ = false;
  transport::TimerId delay_timer_ = 0;

  internal::PipelineCounters counters_;
};

}  // namespace et::tracing

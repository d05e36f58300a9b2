// state_trace and trace_flood: the paper's trace path over loopback TCP.
//
// Deployment (both workloads): a TDN with a persist directory, a 4-broker
// chain on SocketNetwork with ideal links, the pipeline-backed trace
// filter and a WAL-backed TraceLedger on every broker, 4 TracedEntities on
// broker 0 and one Tracker on broker 3 following StateTransitions. Every
// node runs on the network's single loop thread; the main thread issues
// load. An op is one state change, timed from its due time to the
// tracker's handler, after the trace crossed 4 brokers and was verified
// and decrypted.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "layers.h"
#include "probes.h"
#include "span_tracer.h"
#include "src/tracing/traced_entity.h"
#include "src/tracing/tracker.h"
#include "src/transport/socket_network.h"
#include "workloads.h"

namespace tracebench {
namespace {

namespace fs = std::filesystem;
namespace tr = et::tracing;
namespace tp = et::transport;

// Workload constants: fixed here, never derived from a measurement.
constexpr std::size_t kEntities = 4;
constexpr std::size_t kBrokers = 4;
/// state_trace's offered rate: about a fifth of trace_flood's capacity
/// (460-510 traces/s on a 4-core 2 GHz host), so queues stay short.
constexpr double kStateTraceRate = 100.0;
/// trace_flood: state changes each entity keeps outstanding.
constexpr std::size_t kFloodWindow = 4;
/// trace_flood runs closed-loop this long before its window opens.
constexpr std::int64_t kFloodRampNs = 1'000'000'000;
/// A trace arriving later than this after its due time is a failed op.
constexpr std::int64_t kOpTimeoutNs = 2'000'000'000;
/// Deployments an untraced run builds for setup_s, half before the window
/// and half after it: one build takes ~0.4 s, mostly its untimed RSA key
/// generation, and the host's spells last a few seconds.
constexpr int kSetupBuilds = 16;
constexpr int kWarmupTraces = 3;  // verified traces per entity before timing
constexpr int kWarmupAttempts = 20;
constexpr auto kWarmupWait = std::chrono::milliseconds(500);
constexpr auto kReadyWait = std::chrono::seconds(30);
constexpr auto kDrainWait = std::chrono::seconds(5);
/// Length of the slices a window's CPU and throughput medians come from.
constexpr std::int64_t kSliceNs = 1'000'000'000;
// Fixture seeds. Each entity's seed fixes the delegate key it generates
// in start_tracing, so that key generation is the same work every run.
constexpr std::uint64_t kNetSeed = 0x50C4E7;
constexpr std::uint64_t kEntitySeed = 0xE4717900;
constexpr std::uint64_t kTrackerSeed = 0x7EAC4E5;

/// Topics of the setup barriers (see SocketDeployment::barrier).
constexpr const char* kBarrierDown = "Bench/Barrier/Down";
constexpr const char* kBarrierUp = "Bench/Barrier/Up";

constexpr tr::EntityState kStates[] = {tr::EntityState::kReady,
                                       tr::EntityState::kRecovering,
                                       tr::EntityState::kInitializing};

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Sleeps, then spins the last stretch: a sleeping thread wakes ~0.1 ms
/// late, and the open loop times each op from its due time.
void wait_until_ns(std::int64_t t) {
  constexpr std::int64_t kSpinNs = 300'000;
  sleep_until_ns(t - kSpinNs);
  while (now_ns() < t) {
  }
}

/// Seeded state sequence of one entity; never repeats the last state, so
/// a missing or reordered trace shows up as a mismatch.
class StateSeq {
 public:
  explicit StateSeq(std::uint64_t seed) : rng_(seed) {}
  tr::EntityState next() {
    last_ = (last_ + 1 + rng_() % 2) % 3;
    return kStates[last_];
  }

 private:
  std::mt19937_64 rng_;
  std::size_t last_ = 0;
};

/// Counts callbacks; the main thread waits on it instead of polling.
class Countdown {
 public:
  explicit Countdown(std::size_t n) : remaining_(n) {}
  void hit(const et::Status& s) {
    std::lock_guard lock(mu_);
    if (!s.is_ok() && error_.empty()) error_ = s.to_string();
    if (remaining_ > 0) --remaining_;
    cv_.notify_all();
  }
  /// Empty on success, else the first error or "timeout".
  std::string wait() {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, kReadyWait, [&] { return remaining_ == 0; })) {
      return "timeout";
    }
    return error_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_;
  std::string error_;
};

/// Op bookkeeping shared by the main thread and the tracker's handler
/// (which runs on the network loop thread).
class Collector {
 public:
  struct Done {
    std::int64_t due_ns;
    std::int64_t done_ns;
  };

  explicit Collector(std::uint64_t seed) {
    for (std::size_t e = 0; e < kEntities; ++e) {
      seqs_.emplace_back(seed * 1000003 + e);
      index_["ent" + std::to_string(e)] = e;
    }
    pending_.resize(kEntities);
    received_.resize(kEntities);
  }

  void bind(std::vector<std::unique_ptr<tr::TracedEntity>>* entities,
            tp::NetworkBackend* net) {
    entities_ = entities;
    net_ = net;
  }

  /// Records op (entity, due) and reports its state change.
  void issue(std::size_t e, std::int64_t due_ns) {
    tr::EntityState state;
    {
      std::lock_guard lock(mu_);
      state = seqs_[e].next();
      pending_[e].push_back({due_ns, state});
      lag_ms_.push_back(static_cast<double>(now_ns() - due_ns) / 1e6);
    }
    (*entities_)[e]->set_state(state);
  }

  /// Warm-up: reports a state change unmatched and waits for any trace of
  /// entity `e` to arrive. Suppressed changes (no interest registered yet)
  /// never produce one; the caller retries.
  bool warm_once(std::size_t e) {
    std::uint64_t before;
    tr::EntityState state;
    {
      std::lock_guard lock(mu_);
      before = received_[e];
      state = seqs_[e].next();
    }
    (*entities_)[e]->set_state(state);
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, kWarmupWait,
                        [&] { return received_[e] > before; });
  }

  /// Starts exact matching: from now on every trace must answer the
  /// oldest pending op of its entity, with the state that op reported.
  void begin_phase(bool closed_loop) {
    std::lock_guard lock(mu_);
    matching_ = true;
    closed_loop_ = closed_loop;
    done_.clear();
    lag_ms_.clear();
  }

  void end_closed_loop() {
    std::lock_guard lock(mu_);
    closed_loop_ = false;
  }

  /// Waits until every issued op has its trace; false on timeout.
  bool wait_drained() {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, kDrainWait, [&] {
      return std::all_of(pending_.begin(), pending_.end(),
                         [](const auto& q) { return q.empty(); });
    });
  }

  void on_trace(const tr::TracePayload& p, const et::pubsub::Message& m) {
    const std::int64_t t = now_ns();
    std::size_t e = 0;
    bool reissue = false;
    {
      std::lock_guard lock(mu_);
      const auto it = index_.find(p.entity_id);
      if (it == index_.end() || !p.state) {
        ++unexpected_;
        return;
      }
      e = it->second;
      ++received_[e];
      if (matching_) {
        if (pending_[e].empty()) {
          ++unexpected_;
        } else {
          const Op op = pending_[e].front();
          pending_[e].pop_front();
          if (*p.state != op.state) ++order_violations_;
          done_.push_back({op.due_ns, t});
          if (!captured_) {
            captured_ = m;
            captured_at_ = net_->now();
          }
          reissue = closed_loop_;
        }
      }
    }
    cv_.notify_all();
    if (reissue) issue(e, t);
  }

  // Read once the phase is over (the loop may still deliver; lock).
  std::vector<Done> done() {
    std::lock_guard lock(mu_);
    return done_;
  }
  std::size_t done_count() {
    std::lock_guard lock(mu_);
    return done_.size();
  }
  std::vector<double> lags() {
    std::lock_guard lock(mu_);
    return lag_ms_;
  }
  /// Due times of ops still waiting for their trace.
  std::vector<std::int64_t> missing() {
    std::lock_guard lock(mu_);
    std::vector<std::int64_t> out;
    for (const auto& q : pending_) {
      for (const Op& op : q) out.push_back(op.due_ns);
    }
    return out;
  }
  std::uint64_t order_violations() {
    std::lock_guard lock(mu_);
    return order_violations_;
  }
  std::uint64_t unexpected() {
    std::lock_guard lock(mu_);
    return unexpected_;
  }
  std::optional<et::pubsub::Message> captured(et::TimePoint* at) {
    std::lock_guard lock(mu_);
    *at = captured_at_;
    return captured_;
  }

 private:
  struct Op {
    std::int64_t due_ns;
    tr::EntityState state;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<StateSeq> seqs_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<std::deque<Op>> pending_;
  std::vector<std::uint64_t> received_;
  std::vector<Done> done_;
  std::vector<double> lag_ms_;
  bool matching_ = false;
  bool closed_loop_ = false;
  std::uint64_t order_violations_ = 0;
  std::uint64_t unexpected_ = 0;
  std::optional<et::pubsub::Message> captured_;
  et::TimePoint captured_at_ = 0;
  std::vector<std::unique_ptr<tr::TracedEntity>>* entities_ = nullptr;
  tp::NetworkBackend* net_ = nullptr;
};

/// One complete deployment. The network loop starts in the constructor
/// and is stopped first on destruction, before any node is torn down.
struct SocketDeployment {
  SocketDeployment(const Fixture& fx, const Identities& ids,
                   const fs::path& dir, bool traced, std::uint64_t seed)
      : collector(seed),
        socket(kNetSeed),
        tracer(make_tracer(socket, traced)),
        net(tracer ? static_cast<tp::NetworkBackend*>(tracer.get()) : &socket),
        config(paper_config()),
        bb(*net, tracer.get(), fx, ids.tdn, dir, config,
           tp::LinkParams::ideal_profile(), kBrokers,
           /*interest_summary_depth=*/0),
        errors(bb.errors) {
    const tp::LinkParams link = tp::LinkParams::ideal_profile();
    for (std::size_t e = 0; e < kEntities; ++e) {
      auto entity = std::make_unique<tr::TracedEntity>(
          *net, ids.clients[e], bb.anchors, config, kEntitySeed + e);
      entity->attach_tdn(bb.tdn->node(), link);
      entity->connect_broker(bb.brokers.front()->node(), link);
      entities.push_back(std::move(entity));
    }
    tracker = std::make_unique<tr::Tracker>(*net, ids.tracker, bb.anchors,
                                            kTrackerSeed);
    tracker->attach_tdn(bb.tdn->node(), link);
    tracker->connect_broker(bb.brokers.back()->node(), link);
    collector.bind(&entities, net);
    bb.brokers.back()->subscribe_local(
        kBarrierDown, [this](const et::pubsub::Message&) { barrier_hit(); });
    bb.brokers.front()->subscribe_local(
        kBarrierUp, [this](const et::pubsub::Message&) { barrier_hit(); });
  }

  ~SocketDeployment() { socket.stop(); }

  SocketDeployment(const SocketDeployment&) = delete;
  SocketDeployment& operator=(const SocketDeployment&) = delete;

  /// start_tracing on every entity (its step 4 generates an RSA delegate
  /// key, so the caller keeps this out of setup_s).
  void start_entities() {
    Countdown ready(entities.size());
    for (auto& e : entities) {
      e->start_tracing({}, [&ready](const et::Status& s) { ready.hit(s); });
    }
    if (const std::string err = ready.wait(); !err.empty()) {
      errors.push_back("start_tracing: " + err);
    }
  }

  /// Waits for a message sent along the chain to arrive at its far end.
  /// Links are FIFO and brokers route in arrival order, so its arrival —
  /// signalled by a callback — proves every frame sent earlier along the
  /// same path was processed. Downstream (broker 0 -> 3): the sessions'
  /// interest subscriptions have propagated. Upstream (tracker -> broker
  /// 0): the tracker's interest responses reached the hosting broker.
  bool barrier(bool downstream) {
    std::uint64_t target;
    {
      std::lock_guard lock(barrier_mu_);
      target = ++barriers_sent_;
    }
    if (downstream) {
      et::pubsub::Broker* b0 = bb.brokers.front();
      net->post(b0->node(), [b0] {
        et::pubsub::Message m;
        m.topic = kBarrierDown;
        b0->publish_from_broker(std::move(m));
      });
    } else {
      tracker->client().publish(kBarrierUp, et::Bytes{});
    }
    std::unique_lock lock(barrier_mu_);
    return barrier_cv_.wait_for(lock, kReadyWait,
                                [&] { return barriers_seen_ >= target; });
  }

  void barrier_hit() {
    {
      std::lock_guard lock(barrier_mu_);
      ++barriers_seen_;
    }
    barrier_cv_.notify_all();
  }

  /// Tracker follows every entity's StateTransitions; returns once its
  /// interest and trace-key requests reached the hosting broker.
  void attach_tracker() {
    if (!barrier(/*downstream=*/true)) {
      errors.push_back("downstream barrier timed out");
      return;
    }
    Countdown ready(entities.size());
    for (auto& e : entities) {
      tracker->track(
          e->entity_id(), tr::kCatStateTransitions,
          [c = &collector](const tr::TracePayload& p,
                           const et::pubsub::Message& m) { c->on_trace(p, m); },
          [&ready](const et::Status& s) { ready.hit(s); });
    }
    if (const std::string err = ready.wait(); !err.empty()) {
      errors.push_back("track: " + err);
      return;
    }
    if (!barrier(/*downstream=*/false)) {
      errors.push_back("upstream barrier timed out");
    }
  }

  /// Each entity delivers kWarmupTraces verified traces: trace keys
  /// delivered, connections dialed and token caches warm.
  void warm_up() {
    for (int round = 0; round < kWarmupTraces; ++round) {
      for (std::size_t e = 0; e < entities.size(); ++e) {
        bool ok = false;
        for (int a = 0; a < kWarmupAttempts && !ok; ++a) {
          ok = collector.warm_once(e);
          if (!ok) ++warmup_retries;
        }
        if (!ok) {
          errors.push_back("warm-up: no trace from ent" + std::to_string(e));
          return;
        }
      }
    }
  }

  /// Moves the network's loop thread to CPU slot `slot` and the main
  /// thread to the next one.
  void rotate(std::size_t slot) {
    net->post(tracker->client().node(), [slot] { pin_to_slot(slot); });
    pin_to_slot(slot + 1);
  }

  ContextRunner runner() {
    return [this](tp::NodeId node, const std::function<void()>& fn) {
      in_context(*net, node, [&] {
        fn();
        return 0;
      });
    };
  }

  Collector collector;
  tp::SocketNetwork socket;
  std::unique_ptr<SpanTracer> tracer;
  tp::NetworkBackend* net;
  tr::TracingConfig config;
  Backbone bb;
  std::vector<std::unique_ptr<tr::TracedEntity>> entities;
  std::unique_ptr<tr::Tracker> tracker;
  std::vector<std::string> errors;
  int warmup_retries = 0;

 private:
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  std::uint64_t barriers_sent_ = 0;  // guarded by barrier_mu_
  std::uint64_t barriers_seen_ = 0;  // guarded by barrier_mu_
};

/// Builds a ready deployment; returns the seconds setup_s counts:
/// construction plus tracker attach. Untimed: start_tracing (its step 4
/// generates an RSA key) and the warm-up traces (the workload's own op,
/// latency-bound, which doubled setup_s in the host's contended spells).
double build(std::unique_ptr<SocketDeployment>& dep, const Fixture& fx,
             const Identities& ids, const fs::path& dir, bool traced,
             std::uint64_t seed) {
  const std::int64_t a0 = now_ns();
  dep = std::make_unique<SocketDeployment>(fx, ids, dir, traced, seed);
  const std::int64_t a1 = now_ns();
  dep->start_entities();
  const std::int64_t c0 = now_ns();
  if (dep->errors.empty()) dep->attach_tracker();
  const std::int64_t c1 = now_ns();
  if (dep->errors.empty()) dep->warm_up();
  std::printf("setup: build %.3f s, start_tracing %.3f s (untimed), attach "
              "%.3f s, warm-up %.3f s (untimed, %d retries)\n",
              static_cast<double>(a1 - a0) / 1e9,
              static_cast<double>(c0 - a1) / 1e9,
              static_cast<double>(c1 - c0) / 1e9,
              static_cast<double>(now_ns() - c1) / 1e9, dep->warmup_retries);
  return static_cast<double>((a1 - a0) + (c1 - c0)) / 1e9;
}

struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  // completed ops, due -> handler
  std::vector<double> lag_ms;      // issue time - due time
  double ops = 0;     // ops completed in the window
  double ops_per_s = 0;
  double cpu_s = 0;   // the program's CPU over the window
  Slices slices;      // per-second program CPU and completions
};

/// CPU of the program's threads: the process minus the main thread,
/// whose generator loop is the benchmark's own.
double program_cpu(double main_base) {
  return cpu_seconds() - (thread_cpu_seconds() - main_base);
}

using Hook = std::function<void()>;

/// Sorts `done` into the phase: ops due in [t0, t1) are attempted; one
/// completes if its trace came within kOpTimeoutNs.
void account(Phase& ph, const std::vector<Collector::Done>& done,
             const std::vector<std::int64_t>& missing, std::int64_t t0,
             std::int64_t t1) {
  for (const Collector::Done& d : done) {
    if (d.due_ns < t0 || d.due_ns >= t1) continue;
    ++ph.attempted;
    const std::int64_t lat = d.done_ns - d.due_ns;
    if (lat > kOpTimeoutNs) {
      ++ph.failed;
    } else {
      ph.latency_ms.push_back(static_cast<double>(lat) / 1e6);
      ph.slices.latency(d.due_ns, ph.latency_ms.back());
    }
  }
  for (const std::int64_t due : missing) {
    if (due < t0 || due >= t1) continue;
    ++ph.attempted;
    ++ph.failed;
  }
}

/// Open loop: ops due every 1/kStateTraceRate s, round-robin over `order`,
/// whatever the system's state; the main thread is the generator.
Phase open_loop(SocketDeployment& d, double seconds,
                const std::vector<std::size_t>& order, const Hook& open,
                const Hook& close) {
  Collector& c = d.collector;
  const auto n =
      static_cast<std::uint64_t>(std::llround(kStateTraceRate * seconds));
  const auto period = static_cast<std::int64_t>(1e9 / kStateTraceRate);
  c.begin_phase(/*closed_loop=*/false);
  const std::int64_t t0 = now_ns() + 20'000'000;
  sleep_until_ns(t0);
  open();
  Phase ph;
  const double main0 = thread_cpu_seconds();
  const double cpu0 = program_cpu(main0);
  const std::int64_t per_slice = kSliceNs / period;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(i) * period;
    wait_until_ns(due);
    if (i % per_slice == 0) {
      ph.slices.mark(due, program_cpu(main0), static_cast<double>(i));
      d.rotate(static_cast<std::size_t>(i / per_slice));
    }
    c.issue(order[i % order.size()], due);
  }
  c.wait_drained();
  const double cpu1 = program_cpu(main0);
  ph.slices.mark(now_ns(), cpu1, static_cast<double>(n));
  close();

  const auto done = c.done();
  account(ph, done, c.missing(), t0, t0 + static_cast<std::int64_t>(n) * period);
  ph.lag_ms = c.lags();
  std::int64_t last = t0;
  for (const auto& x : done) last = std::max(last, x.done_ns);
  ph.ops = static_cast<double>(ph.latency_ms.size());
  ph.cpu_s = cpu1 - cpu0;
  ph.ops_per_s = ph.ops / (static_cast<double>(last - t0) / 1e9);
  return ph;
}

/// Closed loop: each entity keeps kFloodWindow state changes outstanding
/// and reissues one the moment its trace is verified.
Phase closed_loop(SocketDeployment& d, double seconds,
                  const std::vector<std::size_t>& order, const Hook& open,
                  const Hook& close) {
  Collector& c = d.collector;
  c.begin_phase(/*closed_loop=*/true);
  const std::int64_t start = now_ns();
  for (std::size_t w = 0; w < kFloodWindow; ++w) {
    for (const std::size_t e : order) c.issue(e, now_ns());
  }
  sleep_until_ns(start + kFloodRampNs);
  open();
  Phase ph;
  const std::int64_t t0 = now_ns();
  const double main0 = thread_cpu_seconds();
  const double cpu0 = program_cpu(main0);
  const std::size_t d0 = c.done_count();
  ph.slices.mark(t0, cpu0, static_cast<double>(d0));
  std::size_t slice = 0;
  d.rotate(slice);
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t t = t0 + kSliceNs; t < t_end; t += kSliceNs) {
    sleep_until_ns(t);
    ph.slices.mark(now_ns(), program_cpu(main0),
                   static_cast<double>(c.done_count()));
    d.rotate(++slice);
  }
  sleep_until_ns(t_end);
  const std::int64_t t1 = now_ns();
  const double cpu1 = program_cpu(main0);
  const std::size_t d1 = c.done_count();
  ph.slices.mark(t1, cpu1, static_cast<double>(d1));
  close();
  c.end_closed_loop();
  c.wait_drained();

  account(ph, c.done(), c.missing(), t0, t1);
  ph.lag_ms = c.lags();
  ph.ops = static_cast<double>(d1 - d0);
  ph.cpu_s = cpu1 - cpu0;
  ph.ops_per_s = ph.ops / (static_cast<double>(t1 - t0) / 1e9);
  return ph;
}

/// The gates every run must pass, checked on a stopped network.
void check_gates(SocketDeployment& d, Outcome& out) {
  out.gate(d.collector.order_violations() == 0,
           "traces observed out of issue order: " +
               std::to_string(d.collector.order_violations()));
  out.gate(d.collector.unexpected() == 0,
           "traces matching no issued op: " +
               std::to_string(d.collector.unexpected()));
  out.gate(d.collector.missing().empty(),
           "state changes whose trace never arrived: " +
               std::to_string(d.collector.missing().size()));
  check_trace_gates(d.tracker->stats(), d.bb, out);
}

Outcome run_socket(const Fixture& fx, const RunOptions& opt, bool flood) {
  Outcome out(opt.traced);
  std::mt19937_64 rng(opt.seed);
  std::vector<std::size_t> order(kEntities);
  for (std::size_t e = 0; e < kEntities; ++e) order[e] = e;
  std::shuffle(order.begin(), order.end(), rng);
  const auto run_phase = [&](SocketDeployment& d, double seconds,
                             const Hook& open, const Hook& close) {
    return flood ? closed_loop(d, seconds, order, open, close)
                 : open_loop(d, seconds, order, open, close);
  };
  const Hook none = [] {};

  const Identities ids(fx, "ent", kEntities,
                       et::SystemClock().now());  // SocketNetwork's clock
  std::unique_ptr<SocketDeployment> dep;
  std::vector<double> setup_s;
  // Builds `n` deployments in turn and keeps the last one, ready.
  const auto build_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      dep.reset();
      trim_heap();
      pin_to_slot(setup_s.size());  // the new loop thread inherits it
      const fs::path dir =
          opt.run_dir / ("deploy-" + std::to_string(setup_s.size()));
      setup_s.push_back(build(dep, fx, ids, dir, opt.traced, opt.seed));
      if (!dep->errors.empty()) {
        out.gate(false, dep->errors.front());
        return false;
      }
    }
    return true;
  };

  if (!opt.traced) {
    if (!build_n(kSetupBuilds / 2)) return out;
    SocketDeployment& d = *dep;
    // Footprint of the ready deployment, read before the window: the
    // ledgers keep every trace in memory, so RSS after a time-bounded
    // window would grow with however many ops the host managed.
    const double rss = rss_mb();
    const Phase ph = run_phase(d, opt.seconds, none, none);
    d.socket.stop();
    check_gates(d, out);
    out.attempted = ph.attempted;
    out.failed = ph.failed;
    out.gate(ph.failed == 0, std::to_string(ph.failed) + " ops failed");
    out.gate(!ph.latency_ms.empty(), "no op completed");
    out.add_window(ph.latency_ms, "ops", ph.slices, ph.ops_per_s, !flood);
    out.report.add("rss_mb", rss);
    if (!build_n(kSetupBuilds / 2)) return out;
    out.add_setup(setup_s);
    return out;
  }

  // Traced run: setup spans, then an untraced reference phase (recording
  // off) and the traced phase on the same deployment.
  if (!build_n(1)) return out;
  SocketDeployment& d = *dep;
  TracedWindow w;
  w.roles = node_roles(d.tracer->node_names(), "ent", Role::kEntity);
  setup_busy(d.tracer->take_spans(), w.roles, w);
  d.tracer->set_recording(false);
  const Phase ref = run_phase(d, opt.seconds / 2, none, none);
  w.untraced_cpu_us_per_op = ref.slices.slow_side_cpu_us_per_op();

  Counters c0, c1;
  std::uint64_t f0 = 0, b0 = 0;
  std::int64_t t0 = 0, t1 = 0;
  const Phase ph = run_phase(
      d, opt.seconds,
      [&] {
        c0 = sample_counters(d.bb, d.runner());
        f0 = d.tracer->frames();
        b0 = d.tracer->bytes();
        d.tracer->set_recording(true);
        t0 = now_ns();
      },
      [&] {
        t1 = now_ns();
        d.tracer->set_recording(false);
        w.frames = d.tracer->frames() - f0;
        w.bytes = d.tracer->bytes() - b0;
        c1 = sample_counters(d.bb, d.runner());
      });
  d.socket.stop();
  check_gates(d, out);
  out.attempted = ref.attempted + ph.attempted;
  out.failed = ref.failed + ph.failed;
  out.gate(out.failed == 0, std::to_string(out.failed) + " ops failed");

  collect_spans(*d.tracer, t0, t1, opt.spans_out, w, out);
  w.ops = ph.ops;
  w.entries = ph.ops;
  w.latency_ms = ph.latency_ms;
  w.wall_s = static_cast<double>(t1 - t0) / 1e9;
  w.cpu_s = ph.cpu_s;
  w.cpu_us_per_op = ph.slices.slow_side_cpu_us_per_op();
  w.delta = c1 - c0;
  w.relay_brokers = kBrokers - 1;
  w.generator_lag_p99_ms = p99_or_max(ph.lag_ms);
  read_gauges(d.bb, w);
  w.entities = kEntities;
  add_layer_metrics(out.report, w, out.gate_failures);

  et::TimePoint at = 0;
  const auto captured = d.collector.captured(&at);
  probe_captured(captured, at, fx.identity_keys.private_key, d.bb.ledgers, fx,
                 opt.run_dir, out);
  return out;
}

}  // namespace

Outcome run_state_trace(const Fixture& fixture, const RunOptions& options) {
  return run_socket(fixture, options, /*flood=*/false);
}

Outcome run_trace_flood(const Fixture& fixture, const RunOptions& options) {
  return run_socket(fixture, options, /*flood=*/true);
}

}  // namespace tracebench

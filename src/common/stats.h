// Streaming statistics used by the benchmark harness.
//
// The paper reports every experiment as (mean, standard deviation, standard
// error) in milliseconds — see Tables 3 and 4. `RunningStats` accumulates
// those with Welford's numerically stable online algorithm.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace et {

/// Monotonic event counter readable from any thread.
///
/// Stats structs (BrokerStats, trace-filter counters) are incremented from
/// a node's execution context but read by benchmarks and tests from the
/// main thread while the network is still running. Relaxed atomics make
/// those cross-thread reads well-defined without imposing ordering on the
/// hot path; counters are independent, so callers wanting one coherent
/// view take a snapshot struct of plain integers.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  /// Copying snapshots the current value (for aggregate/snapshot structs).
  RelaxedCounter(const RelaxedCounter& other) : v_(other.get()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    v_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Monotonic high-water mark readable from any thread (e.g. the deepest
/// verification backlog a drain pass has observed). Same memory-order
/// contract as RelaxedCounter: relaxed CAS, no ordering imposed on the
/// writer's hot path.
class RelaxedMaxGauge {
 public:
  RelaxedMaxGauge() = default;
  RelaxedMaxGauge(const RelaxedMaxGauge& other) : v_(other.get()) {}
  RelaxedMaxGauge& operator=(const RelaxedMaxGauge& other) {
    v_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }

  /// Raises the recorded maximum to `candidate` if it is larger.
  void observe(std::uint64_t candidate) {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (candidate > cur &&
           !v_.compare_exchange_weak(cur, candidate,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample standard deviation (n-1 denominator).
  [[nodiscard]] double stddev() const;
  /// Standard error of the mean: stddev / sqrt(n).
  [[nodiscard]] double stderr_of_mean() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  /// Merges another accumulator (parallel reduction).
  void merge(const RunningStats& other);

  /// "mean=… sd=… se=… n=…" one-liner for logs.
  [[nodiscard]] std::string summary() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace et

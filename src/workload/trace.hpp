#pragma once
// Arrival traces: a monotone sequence of absolute arrival timestamps
// (seconds). This is the common currency between the synthesizers, the
// workload parser, the simulator, and both optimizers.

#include <cstdint>
#include <span>
#include <vector>

namespace deepbat::workload {

class Trace {
 public:
  Trace() = default;
  /// Takes ownership of timestamps; they must be non-decreasing.
  explicit Trace(std::vector<double> arrival_times);

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }
  double operator[](std::size_t i) const { return times_[i]; }
  std::span<const double> times() const { return times_; }

  /// First/last timestamps (0 on empty).
  double start_time() const;
  double end_time() const;
  double duration() const { return end_time() - start_time(); }

  /// Mean arrival rate over the trace span (req/s); 0 for < 2 arrivals.
  double mean_rate() const;

  /// Successive differences; size() - 1 entries.
  std::vector<double> interarrivals() const;

  /// Arrivals with t0 <= t < t1, timestamps kept absolute.
  Trace slice(double t0, double t1) const;

  /// The last `count` inter-arrival times strictly before time `t`
  /// (DeepBAT's workload-parser window). If fewer are available, the result
  /// is left-padded with `pad_value` to exactly `count` entries.
  std::vector<double> window_before(double t, std::size_t count,
                                    double pad_value) const;

  /// Per-bin arrival counts over [start, end) with the given bin width —
  /// the arrival-rate series of paper Fig. 4.
  std::vector<std::size_t> rate_histogram(double bin_width) const;

  /// Append another trace; its first timestamp must be >= our last.
  void append(const Trace& other);

 private:
  std::vector<double> times_;
};

/// Build a trace from inter-arrival times starting at `start_time`.
Trace trace_from_interarrivals(std::span<const double> gaps,
                               double start_time = 0.0);

/// Merge-sort several traces into one superposed arrival stream — the
/// aggregated trace a fleet function group serves (core::FleetOptimizer).
/// Deterministic: a k-way stable merge; equal timestamps keep the order of
/// the input traces.
Trace merge_traces(std::span<const Trace* const> traces);

}  // namespace deepbat::workload

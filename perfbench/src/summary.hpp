#pragma once
// Pure arithmetic of the control-plane benchmark: the decision digest, the
// percentile rule for latency samples, and the layer-budget residual. Kept
// free of the runtime so tests/selftest.cpp can check each rule on
// hand-made inputs.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/platform.hpp"

namespace deepbat::perfbench {

/// 64-bit FNV-1a over the exact bit patterns of the values fed to it, so
/// any change of a decision, a cost or a count changes the digest.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  /// 16 lowercase hex digits.
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a whole replay: per tenant, in tenant order, every decision's
/// time and (M, B, T), total cost, invocations, served and dropped
/// requests, and every surrogate swap event.
std::string decision_digest(std::span<const sim::PlatformRun> runs);

/// Percentiles the benchmark may report, in parts per 10000.
inline constexpr std::uint32_t kPercentileLadder[] = {5000, 9000, 9900, 9990,
                                                      9999};

/// Samples strictly beyond the p-th percentile (p in parts per 10000) of
/// `n` samples: n minus the ceil(n * p / 10000) samples at or below it.
std::size_t samples_beyond(std::size_t n, std::uint32_t p);

/// The percentile rule: the highest ladder percentile (parts per 10000)
/// with at least ten samples beyond it, or 0 when even the median has
/// fewer than ten.
std::uint32_t highest_supported_percentile(std::size_t n);

/// Quantile q in [0, 1] of ascending `sorted`, interpolating linearly
/// between order statistics. Requires a non-empty sample.
double quantile_sorted(std::span<const double> sorted, double q);

/// Latency sample summary in milliseconds.
struct LatencySummary {
  std::size_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool p99_supported = false;  // the percentile rule allows p99
  std::uint32_t top_percentile = 0;  // parts per 10000; 0 = none
  double top_ms = 0.0;
};

/// Summarize per-decision latencies given in milliseconds (any order).
LatencySummary summarize_latencies(std::vector<double> ms);

/// Layer budget of one replay: executor time is wall x executors, and the
/// residual is whatever the timed layers did not cover (schedule,
/// simulate, shard coordination and idle time).
struct Budget {
  double wall_s = 0.0;
  std::size_t executors = 0;
  double layer_busy_s = 0.0;

  double executor_s() const {
    return wall_s * static_cast<double>(executors);
  }
  double residual_s() const { return executor_s() - layer_busy_s; }
  /// Residual as a share of executor time (0 when there was none).
  double residual_share() const {
    return executor_s() > 0.0 ? residual_s() / executor_s() : 0.0;
  }
};

/// Threads a sim::Runtime replays on, from its documented sizing: one
/// executor per shard (shards clamped to [1, tenants]) plus one pool slot
/// for the in-flight encode when tick groups are double-buffered (an
/// encoder is set and some shard owns at least two tenants).
std::size_t runtime_executors(std::size_t shards, std::size_t tenants,
                              bool has_encoder, bool overlap_encode);

}  // namespace deepbat::perfbench

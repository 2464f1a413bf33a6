#include "summary.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace deepbat::perfbench {

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add_double(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string decision_digest(std::span<const sim::PlatformRun> runs) {
  Digest d;
  d.add_u64(runs.size());
  for (const sim::PlatformRun& run : runs) {
    d.add_u64(run.decisions.size());
    for (const sim::ControlDecision& c : run.decisions) {
      d.add_double(c.time);
      d.add_u64(static_cast<std::uint64_t>(c.config.memory_mb));
      d.add_u64(static_cast<std::uint64_t>(c.config.batch_size));
      d.add_double(c.config.timeout_s);
    }
    d.add_double(run.result.total_cost);
    d.add_u64(run.result.invocations);
    d.add_u64(run.result.served());
    d.add_u64(run.result.dropped);
    d.add_u64(run.swaps.size());
    for (const sim::SwapEvent& s : run.swaps) {
      d.add_double(s.time);
      d.add_u64(s.from_version);
      d.add_u64(s.to_version);
    }
  }
  return d.hex();
}

std::size_t samples_beyond(std::size_t n, std::uint32_t p) {
  DEEPBAT_CHECK(p <= 10000, "samples_beyond: percentile above 100");
  const std::uint64_t scaled = static_cast<std::uint64_t>(n) * p;
  const std::uint64_t at_or_below = (scaled + 9999) / 10000;
  return n - static_cast<std::size_t>(at_or_below);
}

std::uint32_t highest_supported_percentile(std::size_t n) {
  std::uint32_t best = 0;
  for (const std::uint32_t p : kPercentileLadder) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

double quantile_sorted(std::span<const double> sorted, double q) {
  DEEPBAT_CHECK(!sorted.empty(), "quantile_sorted: empty sample");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

LatencySummary summarize_latencies(std::vector<double> ms) {
  LatencySummary s;
  s.count = ms.size();
  if (ms.empty()) return s;
  std::sort(ms.begin(), ms.end());
  s.p50_ms = quantile_sorted(ms, 0.5);
  s.p99_ms = quantile_sorted(ms, 0.99);
  s.top_percentile = highest_supported_percentile(s.count);
  s.p99_supported = s.top_percentile >= 9900;
  if (s.top_percentile > 0) {
    s.top_ms = quantile_sorted(ms, s.top_percentile / 10000.0);
  }
  return s;
}

std::size_t runtime_executors(std::size_t shards, std::size_t tenants,
                              bool has_encoder, bool overlap_encode) {
  if (tenants == 0) return 1;
  const std::size_t s = std::clamp<std::size_t>(shards, 1, tenants);
  const bool overlap = overlap_encode && has_encoder && tenants > s;
  return s + (overlap ? 1 : 0);
}

}  // namespace deepbat::perfbench

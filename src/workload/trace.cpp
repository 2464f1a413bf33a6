#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace deepbat::workload {

Trace::Trace(std::vector<double> arrival_times)
    : times_(std::move(arrival_times)) {
  for (std::size_t i = 1; i < times_.size(); ++i) {
    DEEPBAT_CHECK(times_[i] >= times_[i - 1],
                  "Trace: timestamps must be non-decreasing");
  }
}

double Trace::start_time() const { return times_.empty() ? 0.0 : times_.front(); }

double Trace::end_time() const { return times_.empty() ? 0.0 : times_.back(); }

double Trace::mean_rate() const {
  if (times_.size() < 2 || duration() <= 0.0) return 0.0;
  return static_cast<double>(times_.size() - 1) / duration();
}

std::vector<double> Trace::interarrivals() const {
  std::vector<double> gaps;
  if (times_.size() < 2) return gaps;
  gaps.reserve(times_.size() - 1);
  for (std::size_t i = 1; i < times_.size(); ++i) {
    gaps.push_back(times_[i] - times_[i - 1]);
  }
  return gaps;
}

Trace Trace::slice(double t0, double t1) const {
  DEEPBAT_CHECK(t1 >= t0, "Trace::slice: empty interval");
  const auto lo = std::lower_bound(times_.begin(), times_.end(), t0);
  const auto hi = std::lower_bound(times_.begin(), times_.end(), t1);
  return Trace(std::vector<double>(lo, hi));
}

std::vector<double> Trace::window_before(double t, std::size_t count,
                                         double pad_value) const {
  std::vector<double> out;
  out.reserve(count);
  const auto end =
      std::lower_bound(times_.begin(), times_.end(), t) - times_.begin();
  // Collect up to `count` gaps ending at index end-1, then reverse.
  for (std::ptrdiff_t i = end - 1; i >= 1 && out.size() < count; --i) {
    out.push_back(times_[static_cast<std::size_t>(i)] -
                  times_[static_cast<std::size_t>(i - 1)]);
  }
  std::reverse(out.begin(), out.end());
  if (out.size() < count) {
    out.insert(out.begin(), count - out.size(), pad_value);
  }
  return out;
}

std::vector<std::size_t> Trace::rate_histogram(double bin_width) const {
  DEEPBAT_CHECK(bin_width > 0.0, "rate_histogram: bin width must be positive");
  if (times_.empty()) return {};
  const double span = end_time() - start_time();
  const auto bins = static_cast<std::size_t>(std::floor(span / bin_width)) + 1;
  std::vector<std::size_t> counts(bins, 0);
  for (double t : times_) {
    auto b = static_cast<std::size_t>((t - start_time()) / bin_width);
    if (b >= bins) b = bins - 1;
    ++counts[b];
  }
  return counts;
}

void Trace::append(const Trace& other) {
  if (other.empty()) return;
  DEEPBAT_CHECK(times_.empty() || other.times_.front() >= times_.back(),
                "Trace::append: would break monotonicity");
  times_.insert(times_.end(), other.times_.begin(), other.times_.end());
}

Trace merge_traces(std::span<const Trace* const> traces) {
  std::size_t total = 0;
  for (const Trace* t : traces) {
    DEEPBAT_CHECK(t != nullptr, "merge_traces: null trace");
    total += t->size();
  }
  std::vector<double> merged;
  merged.reserve(total);
  std::vector<std::size_t> cursor(traces.size(), 0);
  while (merged.size() < total) {
    std::size_t best = traces.size();
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (cursor[i] >= traces[i]->size()) continue;
      if (best == traces.size() ||
          (*traces[i])[cursor[i]] < (*traces[best])[cursor[best]]) {
        best = i;  // strict < keeps equal timestamps input-ordered (stable)
      }
    }
    merged.push_back((*traces[best])[cursor[best]++]);
  }
  return Trace(std::move(merged));
}

Trace trace_from_interarrivals(std::span<const double> gaps,
                               double start_time) {
  std::vector<double> times;
  times.reserve(gaps.size() + 1);
  double t = start_time;
  times.push_back(t);
  for (double g : gaps) {
    DEEPBAT_CHECK(g >= 0.0, "trace_from_interarrivals: negative gap");
    t += g;
    times.push_back(t);
  }
  return Trace(std::move(times));
}

}  // namespace deepbat::workload

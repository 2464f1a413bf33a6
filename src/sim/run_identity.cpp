#include "sim/run_identity.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace deepbat::sim {

// Adding a field to any compared type changes its size and fails the build
// here until first_divergence compares the new field. Every scalar member
// is 8 bytes wide, so each size is the sum of its members.
using Vec = std::vector<double>;
static_assert(sizeof(RequestRecord) == 5 * 8);
static_assert(sizeof(SimResult) == 2 * sizeof(Vec) + 4 * 8);
static_assert(sizeof(lambda::Config) == 3 * 8);
static_assert(sizeof(ControlDecision) == 8 + sizeof(lambda::Config));
static_assert(sizeof(SwapEvent) == 3 * 8);
static_assert(sizeof(PlatformRun) == sizeof(SimResult) + 2 * sizeof(Vec) +
                                         sizeof(std::string) + 2 * 8);

namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
template <class T>
bool same(const T& a, const T& b) {
  return a == b;
}

std::string render(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string render(const std::string& v) { return '"' + v + '"'; }
template <class T>
  requires std::is_integral_v<T>
std::string render(T v) {
  return std::to_string(v);
}

/// Compares fields in call order and keeps the first difference; every
/// later call is a no-op once one is found.
class Walker {
 public:
  template <class T>
  void field(std::string_view name, const T& a, const T& b) {
    if (found || same(a, b)) return;
    std::string path = element_;
    if (!path.empty() && !name.empty()) path += '.';
    path += name;
    found = RunDivergence{std::nullopt, std::move(path), index_,
                          render(a) + " vs " + render(b)};
  }

  /// The length, then each element pair through `compare`, whose fields
  /// are reported as "<name>[].<field>".
  template <class T, class Compare>
  void each(std::string_view name, const std::vector<T>& a,
            const std::vector<T>& b, Compare compare) {
    field(std::string(name) + ".size", a.size(), b.size());
    element_ = std::string(name) + "[]";
    for (std::size_t i = 0; i < a.size() && !found; ++i) {
      index_ = i;
      compare(a[i], b[i]);
    }
    element_.clear();
    index_.reset();
  }

  std::optional<RunDivergence> found;

 private:
  std::string element_;  // "<vector>[]" while walking a vector's elements
  std::optional<std::size_t> index_;
};

}  // namespace

std::string to_string(const RunDivergence& d) {
  std::string field = d.field;
  const std::size_t at = field.find("[]");
  if (d.index && at != std::string::npos) {
    field.insert(at + 1, std::to_string(*d.index));
  }
  const std::string tenant =
      d.tenant ? "tenant " + std::to_string(*d.tenant) + ": " : "";
  return tenant + field + " (" + d.values + ")";
}

std::optional<RunDivergence> first_divergence(const SimResult& a,
                                              const SimResult& b) {
  Walker w;
  w.each("requests", a.requests, b.requests,
         [&](const RequestRecord& x, const RequestRecord& y) {
           w.field("arrival", x.arrival, y.arrival);
           w.field("dispatch", x.dispatch, y.dispatch);
           w.field("completion", x.completion, y.completion);
           w.field("batch_actual", x.batch_actual, y.batch_actual);
           w.field("cost_share", x.cost_share, y.cost_share);
         });
  w.field("invocations", a.invocations, b.invocations);
  w.field("total_cost", a.total_cost, b.total_cost);
  w.each("dropped_arrivals", a.dropped_arrivals, b.dropped_arrivals,
         [&](double x, double y) { w.field("", x, y); });
  w.field("retries", a.retries, b.retries);
  w.field("dropped", a.dropped, b.dropped);
  return std::move(w.found);
}

std::optional<RunDivergence> first_divergence(
    std::span<const PlatformRun> a, std::span<const PlatformRun> b) {
  if (a.size() != b.size()) {
    return RunDivergence{std::nullopt, "tenants.size", std::nullopt,
                         render(a.size()) + " vs " + render(b.size())};
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    const PlatformRun& x = a[t];
    const PlatformRun& y = b[t];
    Walker w;
    w.field("fault_stream", x.fault_stream, y.fault_stream);
    w.field("group_id", x.group_id, y.group_id);
    w.field("backend", x.backend, y.backend);
    w.each("swaps", x.swaps, y.swaps,
           [&](const SwapEvent& p, const SwapEvent& q) {
             w.field("time", p.time, q.time);
             w.field("from_version", p.from_version, q.from_version);
             w.field("to_version", p.to_version, q.to_version);
           });
    w.each("decisions", x.decisions, y.decisions,
           [&](const ControlDecision& p, const ControlDecision& q) {
             w.field("time", p.time, q.time);
             w.field("config.memory_mb", p.config.memory_mb,
                     q.config.memory_mb);
             w.field("config.batch_size", p.config.batch_size,
                     q.config.batch_size);
             w.field("config.timeout_s", p.config.timeout_s,
                     q.config.timeout_s);
           });
    std::optional<RunDivergence> d = std::move(w.found);
    if (!d && (d = first_divergence(x.result, y.result))) {
      d->field = "result." + d->field;
    }
    if (d) {
      d->tenant = t;
      return d;
    }
  }
  return std::nullopt;
}

}  // namespace deepbat::sim

#pragma once
// Run identity — the determinism contract of DESIGN.md §10, defined once.
// Two replays are the same run when every field of every tenant's
// PlatformRun matches by bit image: decisions (time and full Config), each
// served request, the SimResult totals and drop record, and the fleet and
// retraining metadata. Doubles compare by std::bit_cast, the bits the
// checkpoint stores, so -0.0 and 0.0 differ and a NaN equals only itself.
// Shard invariance, reruns, checkpoint/restore, retrain swaps and grouped
// fleets are all checked through first_divergence; nothing else compares
// PlatformRuns field by field.

#include <cstddef>
#include <optional>
#include <span>
#include <string>

#include "sim/platform.hpp"

namespace deepbat::sim {

/// The first field on which two replays differ.
struct RunDivergence {
  /// Index of the divergent tenant; nullopt when the runs differ in count
  /// or two lone SimResults were compared.
  std::optional<std::size_t> tenant;
  /// Field path from PlatformRun, e.g. "result.requests[].completion": "[]"
  /// marks the vector element `index`, a ".size" suffix a length mismatch.
  std::string field;
  std::optional<std::size_t> index;
  /// The two values, "<a> vs <b>".
  std::string values;
};

/// "tenant 3: result.requests[1187].completion (0.51 vs 0.52)".
std::string to_string(const RunDivergence& d);

/// nullopt when `a` and `b` are the same run, else the first difference in
/// field order: tenant count, then per tenant fault_stream, group_id,
/// backend, swaps, decisions, result.
std::optional<RunDivergence> first_divergence(
    std::span<const PlatformRun> a, std::span<const PlatformRun> b);

/// The same contract on one simulator result; field paths omit "result.".
std::optional<RunDivergence> first_divergence(const SimResult& a,
                                              const SimResult& b);

}  // namespace deepbat::sim

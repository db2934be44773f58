#pragma once

/// \file selftime.hpp
/// Exclusive (self) time per span name from a tracer snapshot.
///
/// Spans are nested per lane by interval containment: a span whose start
/// lies inside an open span on the same lane is its child. A span's self
/// time is its duration minus the time its direct children cover. Totals
/// are summed per name across lanes.
///
/// `opt.multistart` serves two layers, so it is split by its nearest
/// `gp.fit` or `al.round` ancestor: under `gp.fit` it is reported as
/// `opt.hyperfit` (hyperparameter search), under `al.round` as
/// `opt.acquire` (acquisition search).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.hpp"

namespace perfbench {

/// Per-name totals over every lane.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t selfNanos = 0;
};

struct SelfTimes {
  std::map<std::string, SpanTotals> byName;
  /// Summed duration of every span named `root`, and the summed self time
  /// of those spans and all their descendants on the same lane. The two
  /// agree when the nesting accounts for every nanosecond once.
  std::uint64_t rootNanos = 0;
  std::uint64_t rootLaneSelfNanos = 0;

  /// Self time of `name` in seconds (0 when it never ran).
  double selfSeconds(const std::string& name) const;
  /// Number of `name` spans.
  std::uint64_t count(const std::string& name) const;
};

/// Computes self times from `events` (non-span events are ignored).
/// `root` names the span that marks the measured region, e.g. the
/// campaign.
SelfTimes computeSelfTimes(const std::vector<alperf::trace::TraceEvent>& events,
                           const std::string& root);

}  // namespace perfbench

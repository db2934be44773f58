#include "selftime.hpp"

#include <algorithm>
#include <tuple>

namespace perfbench {

namespace {

using alperf::trace::EventKind;
using alperf::trace::TraceEvent;

/// An open span on one lane's nesting stack.
struct Open {
  const TraceEvent* ev;
  std::string name;  ///< reporting name (opt.multistart split)
  std::uint64_t end;
  std::uint64_t childNanos = 0;
  bool underRoot;
};

std::string reportingName(const TraceEvent& ev,
                          const std::vector<Open>& stack) {
  if (ev.name != "opt.multistart") return ev.name;
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->ev->name == "gp.fit") return "opt.hyperfit";
    if (it->ev->name == "al.round") return "opt.acquire";
  }
  return ev.name;
}

}  // namespace

double SelfTimes::selfSeconds(const std::string& name) const {
  const auto it = byName.find(name);
  return it == byName.end() ? 0.0
                            : static_cast<double>(it->second.selfNanos) / 1e9;
}

std::uint64_t SelfTimes::count(const std::string& name) const {
  const auto it = byName.find(name);
  return it == byName.end() ? 0 : it->second.count;
}

SelfTimes computeSelfTimes(const std::vector<TraceEvent>& events,
                           const std::string& root) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> lanes;
  for (const auto& ev : events)
    if (ev.kind == EventKind::Span) lanes[ev.tid].push_back(&ev);

  SelfTimes out;
  for (auto& [tid, spans] : lanes) {
    // Parents first: earlier start, then longer duration.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return std::make_tuple(a->tsNanos, b->durNanos, a->id) <
                       std::make_tuple(b->tsNanos, a->durNanos, b->id);
              });
    std::vector<Open> stack;
    const auto close = [&] {
      const Open& o = stack.back();
      const std::uint64_t dur = o.end - o.ev->tsNanos;
      const std::uint64_t self = dur - std::min(dur, o.childNanos);
      SpanTotals& t = out.byName[o.name];
      ++t.count;
      t.selfNanos += self;
      if (o.underRoot) out.rootLaneSelfNanos += self;
      stack.pop_back();
    };
    for (const TraceEvent* ev : spans) {
      while (!stack.empty() && stack.back().end <= ev->tsNanos) close();
      std::uint64_t end = ev->tsNanos + ev->durNanos;
      bool underRoot = ev->name == root;
      if (!stack.empty()) {
        Open& parent = stack.back();
        end = std::min(end, parent.end);  // a child never outlives its parent
        parent.childNanos += end - ev->tsNanos;
        underRoot = underRoot || parent.underRoot;
      }
      if (ev->name == root) out.rootNanos += end - ev->tsNanos;
      stack.push_back({ev, reportingName(*ev, stack), end, 0, underRoot});
    }
    while (!stack.empty()) close();
  }
  return out;
}

}  // namespace perfbench

// Checks computeSelfTimes on a hand-built event list: nesting by interval
// containment, self = duration minus children, the opt.multistart split by
// ancestor, summing across lanes, clipping of a child that outlives its
// parent, and the root-lane attribution identity. Exits nonzero on any
// mismatch.

#include <cstdio>
#include <string>
#include <vector>

#include "selftime.hpp"

using alperf::trace::EventKind;
using alperf::trace::TraceEvent;

namespace {

int failures = 0;

void expectEq(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return;
  std::fprintf(stderr, "selftime_test: %s = %llu, want %llu\n", what,
               static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
  ++failures;
}

TraceEvent span(std::uint32_t tid, std::uint64_t seq, const char* name,
                std::uint64_t ts, std::uint64_t dur) {
  TraceEvent ev;
  ev.id = (static_cast<std::uint64_t>(tid) << 32) | seq;
  ev.kind = EventKind::Span;
  ev.name = name;
  ev.tid = tid;
  ev.tsNanos = ts;
  ev.durNanos = dur;
  return ev;
}

}  // namespace

int main() {
  // Spans are recorded at scope exit, so children precede their parents
  // in a real snapshot; the list below keeps that order.
  std::vector<TraceEvent> events = {
      span(1, 0, "gp.lml", 16, 10),
      span(1, 1, "gp.lml", 30, 10),
      span(1, 2, "opt.multistart", 15, 30),
      span(1, 3, "gp.fit", 12, 40),
      span(1, 4, "al.fit", 10, 50),
      span(1, 5, "opt.multistart", 71, 20),
      span(1, 6, "al.round", 70, 25),
      span(1, 7, "bench.campaign", 0, 100),
      span(2, 0, "gp.lml", 20, 5),         // worker lane, outside the root
      span(3, 0, "b", 5, 10),              // outlives its parent by 5
      span(3, 1, "a", 0, 10),
      span(4, 0, "opt.multistart", 0, 3),  // no fit or round ancestor
  };
  TraceEvent marker;
  marker.kind = EventKind::Instant;
  marker.name = "al.pool";
  marker.tid = 1;
  marker.tsNanos = 50;
  events.push_back(marker);

  const auto st = perfbench::computeSelfTimes(events, "bench.campaign");
  const auto self = [&](const char* n) -> std::uint64_t {
    const auto it = st.byName.find(n);
    return it == st.byName.end() ? 0 : it->second.selfNanos;
  };

  expectEq("bench.campaign self", self("bench.campaign"), 25);
  expectEq("al.fit self", self("al.fit"), 10);
  expectEq("gp.fit self", self("gp.fit"), 10);
  expectEq("opt.hyperfit self", self("opt.hyperfit"), 10);
  expectEq("opt.acquire self", self("opt.acquire"), 20);
  expectEq("al.round self", self("al.round"), 5);
  expectEq("gp.lml self (all lanes)", self("gp.lml"), 25);
  expectEq("gp.lml count", st.count("gp.lml"), 3);
  expectEq("opt.multistart self (no ancestor)", self("opt.multistart"), 3);
  expectEq("a self", self("a"), 5);
  expectEq("b self (clipped)", self("b"), 5);
  expectEq("al.pool (instant) ignored", st.count("al.pool"), 0);
  expectEq("root duration", st.rootNanos, 100);
  expectEq("root lane self sum", st.rootLaneSelfNanos, 100);

  if (failures > 0) return 1;
  std::printf("selftime_test: ok\n");
  return 0;
}

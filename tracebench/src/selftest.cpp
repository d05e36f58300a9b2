// Self-tests of the benchmark's own machinery: percentile and slow-side
// decile selection, window slicing, span self-time arithmetic, node
// roles, causal linking through the backend decorator, and the result
// line's metric/unit printing. Exits non-zero on any failure.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "layers.h"
#include "span_tracer.h"
#include "src/transport/virtual_network.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace tracebench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_selection() {
  const auto s1000 = ramp(1000);
  CHECK(nearest_rank(s1000, 0.5) == 500);
  CHECK(nearest_rank(s1000, 0.99) == 990);
  // 1000 samples: 10 rank beyond the p99 sample, so p99 is reported.
  const auto p = supported_percentile(s1000, 0.99);
  CHECK(p.has_value() && *p == 990);
  // 999 samples leave only 9 beyond it: withheld.
  CHECK(!supported_percentile(ramp(999), 0.99).has_value());
  CHECK(supported_percentile(ramp(100), 0.9).has_value());
  CHECK(!supported_percentile(ramp(99), 0.9).has_value());
  CHECK(!supported_percentile({}, 0.5).has_value());
  CHECK(nearest_rank({7.0}, 0.99) == 7.0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 2, 3}) == 2.5);
  // Slow side: p90 of a cost, p10 of a rate, whatever the input order.
  std::vector<double> shuffled = ramp(20);
  std::swap(shuffled[0], shuffled[19]);
  std::swap(shuffled[3], shuffled[17]);
  CHECK(slow_side_cost(shuffled) == 18);
  CHECK(slow_side_rate(shuffled) == 2);
  CHECK(p99_or_max(ramp(1000)) == 990);
  CHECK(p99_or_max(ramp(50)) == 50);
  CHECK(p99_or_max({}) == 0);
}

void slice_figures() {
  // Two one-second slices: 100 ops for 0.2 s of CPU, then 50 for 0.2 s.
  Slices s;
  s.mark(0, 0.0, 0);
  s.mark(1'000'000'000, 0.2, 100);
  s.mark(2'000'000'000, 0.4, 150);
  for (int i = 0; i < 30; ++i) {
    s.latency(500'000'000, 1.0 + i);      // slice 0: median 15
    s.latency(1'500'000'000, 100.0 + i);  // slice 1: median 114
  }
  s.latency(2'500'000'000, 7.0);  // past the last mark: no slice
  s.latency(-1, 7.0);             // before the first mark: no slice
  const Slices::Figures f = s.figures();
  CHECK(s.count() == 2);
  CHECK(s.slow_side_cpu_us_per_op() == 4000);
  CHECK(f.ops_per_s.size() == 2 && f.ops_per_s[0] == 100 && f.ops_per_s[1] == 50);
  CHECK(f.cpu_us_per_op.size() == 2 && f.cpu_us_per_op[0] == 2000 &&
        f.cpu_us_per_op[1] == 4000);
  CHECK(f.p50_ms.size() == 2 && f.p50_ms[0] == 15 && f.p50_ms[1] == 114);
  // A slice too small to support its median reports no latency.
  Slices small;
  small.mark(0, 0, 0);
  small.mark(10, 0, 1);
  small.latency(5, 1.0);
  CHECK(small.figures().p50_ms.empty());
  CHECK(Slices().slow_side_cpu_us_per_op() == 0);
}

void role_naming() {
  const std::vector<std::string> names = {"tdn-0",  "broker0", "broker1",
                                          "h12",    "tracker0", "misc"};
  const std::vector<Role> want = {Role::kTdn,        Role::kHostingBroker,
                                  Role::kRelayBroker, Role::kEntityHost,
                                  Role::kTracker,     Role::kOther};
  CHECK(node_roles(names, "h", Role::kEntityHost) == want);
  CHECK(node_roles({"ent3"}, "ent", Role::kEntity)[0] == Role::kEntity);
}

void self_time_arithmetic() {
  Span s;
  s.start_ns = 0;
  s.end_ns = 100;
  CHECK(self_time_ns(s, {}) == 100);
  // Overlapping children count once; parts outside the span are clipped:
  // covered = [0,5] + [10,40] + [90,100] = 45.
  CHECK(self_time_ns(s, {{10, 30}, {20, 40}, {90, 120}, {-5, 5}}) == 55);
  CHECK(self_time_ns(s, {{0, 100}}) == 0);
  CHECK(self_time_ns(s, {{200, 300}}) == 100);

  // summarize(): a nested child adds its own self time to its node, so a
  // node's busy time is its handler's wall time, not double-counted.
  std::vector<Span> spans(3);
  spans[0] = {1, 0, 0, SpanKind::kPacket, 1000, 2000, 900};
  spans[1] = {2, 1, 0, SpanKind::kFilter, 1200, 1500, -1};
  spans[2] = {3, 1, 1, SpanKind::kPacket, 2100, 2400, 2000};  // causal child
  const SpanSummary sum = summarize(spans, 0, 10000, 2);
  CHECK(sum.busy_ns[0] == 1000);
  CHECK(sum.busy_ns[1] == 300);
  CHECK(sum.filter_ns == 300 && sum.filter_calls == 1);
  CHECK(sum.linked_packets == 2 && sum.packet_wait_ns == 100 + 100);
  // The window selects spans by start time.
  CHECK(summarize(spans, 2000, 10000, 2).busy_ns[0] == 0);
}

void causal_linking() {
  et::transport::VirtualTimeNetwork vnet(7);
  SpanTracer tracer(vnet);
  tracer.set_recording(true);
  et::transport::NodeId a = 0, b = 0, c = 0;
  int delivered = 0;
  a = tracer.add_node("a", [](et::transport::NodeId, et::BytesView) {});
  b = tracer.add_node("b", [&](et::transport::NodeId, et::BytesView p) {
    (void)tracer.send(b, c, et::Bytes(p.begin(), p.end()));
  });
  c = tracer.add_node("c", [&](et::transport::NodeId, et::BytesView) {
    ++delivered;
  });
  auto link = et::transport::LinkParams::ideal_profile();
  link.base_latency = et::kMillisecond;
  tracer.link(a, b, link);
  tracer.link(b, c, link);
  // Two messages down the chain: FIFO matching must pair each hop with
  // its own cause.
  for (int i = 0; i < 2; ++i) {
    tracer.post(a, [&, i] { (void)tracer.send(a, b, et::Bytes(8 + i, 0)); });
  }
  vnet.run_until_idle();
  CHECK(delivered == 2);
  CHECK(tracer.frames() == 4);
  CHECK(tracer.bytes() == 2 * (8 + 9));
  const std::vector<Span> spans = tracer.take_spans();
  CHECK(spans.size() == 6);
  std::vector<const Span*> tasks, at_b, at_c;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kTask && s.node == a) tasks.push_back(&s);
    if (s.kind == SpanKind::kPacket && s.node == b) at_b.push_back(&s);
    if (s.kind == SpanKind::kPacket && s.node == c) at_c.push_back(&s);
  }
  CHECK(tasks.size() == 2 && at_b.size() == 2 && at_c.size() == 2);
  if (tasks.size() == 2 && at_b.size() == 2 && at_c.size() == 2) {
    for (int i = 0; i < 2; ++i) {
      CHECK(tasks[i]->parent == 0);
      CHECK(at_b[i]->parent == tasks[i]->id);
      CHECK(at_c[i]->parent == at_b[i]->id);
      CHECK(at_c[i]->sent_ns >= at_b[i]->start_ns);
      CHECK(at_c[i]->sent_ns <= at_b[i]->end_ns);
    }
  }
  // Recording off: nothing is timed, but links stay in step so a later
  // recorded hop still finds its cause.
  tracer.set_recording(false);
  tracer.post(a, [&] { (void)tracer.send(a, b, et::Bytes(1, 0)); });
  vnet.run_until_idle();
  CHECK(tracer.take_spans().empty());
  CHECK(delivered == 3);
  const auto names = tracer.node_names();
  CHECK(names.size() == 3 && names[a] == "a" && names[c] == "c");
}

void metrics_printed_with_units() {
  for (const bool traced : {false, true}) {
    Report r(traced);
    double v = 1.5;
    for (const MetricSpec& m : catalogue(traced)) r.add(m.name, v += 1);
    CHECK(r.missing().empty());
    const std::string line = r.json(true, 10, 0);
    for (const MetricSpec& m : catalogue(traced)) {
      const std::string want = "\"" + std::string(m.name) +
                               "\": {\"value\": ";
      const auto at = line.find(want);
      CHECK(at != std::string::npos);
      const std::string unit = "\"unit\": \"" + std::string(m.unit) + "\"}";
      CHECK(line.find(unit, at) == line.find('}', at) - unit.size() + 1);
    }
    CHECK(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0", 0) == 0);
  }
  Report r(false);
  bool threw = false;
  try {
    r.add("tracing.entity.busy_us_per_op", 1);  // per-layer name, e2e report
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    r.add("latency_p50_ms", 0.0 / 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  CHECK(r.missing().size() == std::size(kEndToEnd));
}

}  // namespace

int main() {
  percentile_selection();
  slice_figures();
  self_time_arithmetic();
  role_naming();
  causal_linking();
  metrics_printed_with_units();
  if (g_failures != 0) {
    std::fprintf(stderr, "tracebench self-tests: %d failed\n", g_failures);
    return 1;
  }
  std::printf("tracebench self-tests: all passed\n");
  return 0;
}

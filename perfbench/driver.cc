// Benchmark driver: runs one workload of the JTP simulator, either timed
// (no instrumentation; end-to-end metrics) or traced (per-layer metrics),
// checks the simulated outputs, and prints one JSON record as its last
// line. perfbench/run.py builds this program and turns the record into
// the benchmark's result line; README.md describes the workloads and
// metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// Everything here goes through public entry points of the layer
// libraries: exp::build, net::Network::run_until / Simulator::step,
// exp::FlowManager::collect, the layers' stats()/total_*() accessors,
// and the pure control-plane functions mac::color_interference,
// routing::LinkStateRouting::next_hop and phy::Topology::neighbors_into.
// Every workload runs on the single event loop (shards=1).
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"
#include "mac/interference.h"
#include "report.h"
#include "routing/link_state.h"

using namespace jtp;
using perfbench::json_number;
using perfbench::json_string;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  const char* spec;  // scenario spec; seed and proto are appended per run
  double horizon_s;  // simulated seconds per run
  std::size_t seeds; // runs per batch, per protocol (exp::seed_for_run)
  std::vector<exp::Proto> protos;
  bool parallel;     // timed batch on nproc/2 jobs (exp::run_seeds_as)
};

// Timed passes per run at the least; wall_s keeps each run's fastest.
constexpr std::size_t kMinPasses = 2;
// The calibration gauge: cycle length in 4-byte words, steps per walk,
// and the walk's fastest time on the host the benchmark was tuned on (a
// 4-core x86-64 VM, GCC 12.2 Release), which defines a reference second.
constexpr std::uint32_t kGaugeWords = 4u << 20;
constexpr std::size_t kGaugeSteps = 300000;
constexpr double kReferenceGaugeS = 0.045;

const std::vector<Workload>& workloads() {
  using exp::Proto;
  static const std::vector<Workload> all = {
      {"mobile_reuse", "scale_mobile,net_size=1000,mac=tdma_reuse", 25.0, 5,
       {Proto::kJtp}, false},
      {"mobile_csma", "scale_mobile,net_size=1000,mac=csma", 90.0, 11,
       {Proto::kJtp}, false},
      {"static_poisson",
       "scale,net_size=1000,mac=tdma_reuse,workload=poisson,transfer=50,"
       "interarrival=2000,window=1100",
       1400.0, 3, {Proto::kJtp}, false},
      {"paper_batch", "random", 1000.0, 100,
       {Proto::kJtp, Proto::kTcp, Proto::kAtp, Proto::kJtpDr, Proto::kBbr},
       true},
  };
  return all;
}

exp::ScenarioSpec spec_for(const Workload& w, std::uint64_t seed,
                           exp::Proto proto) {
  const std::string text = std::string(w.spec) + ",seed=" +
                           std::to_string(seed) +
                           ",proto=" + exp::proto_name(proto);
  auto parsed = exp::parse_scenario(text);
  if (!parsed.ok())
    throw std::invalid_argument("workload spec '" + text +
                                "': " + parsed.error);
  return parsed.spec;
}

// --- spans ----------------------------------------------------------------

// In-memory span log of the traced run (name, start, end, parent), written
// out when the run ends. Single-threaded: the traced batch runs at jobs=1.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
  };

  int begin(std::string name) {
    spans_.push_back({std::move(name), now_us(), -1.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  // Closes span `id` (the innermost open one); returns its length in s.
  double end(int id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end_us = now_us();
    open_.pop_back();
    return (s.end_us - s.start_us) * 1e-6;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i
          << ",\"name\":" << json_string(s.name)
          << ",\"start_us\":" << json_number(s.start_us)
          << ",\"end_us\":" << json_number(s.end_us)
          << ",\"parent\":" << s.parent << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- one run --------------------------------------------------------------

struct FlowOut {
  double start_time = 0.0;
  double completed_at = -1.0;
  std::uint64_t delivered = 0;
  std::uint64_t total = 0;
};

// What only the traced run measures.
struct TraceOut {
  double make_topology_s = 0.0;
  double loop_s = 0.0;  // event loop, probe time excluded
  double collect_s = 0.0;
  std::vector<double> chunk_ms;  // host ms per simulated-second chunk
  std::uint64_t colorings_compared = 0;
  std::uint64_t colorings_changed = 0;
  std::vector<double> neighbors_ns;  // per snapshot: ns per neighbors_into
  std::vector<double> recolor_ms;    // per snapshot: one color_interference
  std::vector<double> row_build_us;  // per snapshot x source: cold row
};

struct RunOut {
  exp::Proto proto = exp::Proto::kJtp;
  std::string spec;
  double build_s = 0.0;
  double run_s = 0.0;  // Network::run_until (timed run only)
  exp::RunMetrics m;
  std::vector<FlowOut> flows;
  // Public counters, read after the run.
  std::uint64_t events = 0;
  std::uint64_t event_pool_hw = 0;
  std::uint64_t spill_allocs = 0;
  std::uint64_t packet_pool_hw = 0;
  std::uint64_t moves = 0;
  std::uint64_t rows_built_setup = 0;
  routing::RoutingStats rs;
  mac::MacStats ms;
  phy::ChannelStats cs;
  std::vector<std::string> violations;  // public-counter invariants
  std::string fingerprint;  // every simulated output, bit-exact
  std::optional<TraceOut> trace;
};

// Every simulated output and counter of a run, doubles in hex so equal
// strings mean bit-identical results.
std::string fingerprint(const RunOut& r) {
  std::string s;
  char buf[64];
  auto f = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, "%s=%a;", k, v);
    s += buf;
  };
  auto u = [&](const char* k, std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%s=%llu;", k,
                  static_cast<unsigned long long>(v));
    s += buf;
  };
  s += r.spec + ";";
  const auto& m = r.m;
  f("energy", m.total_energy_j);
  f("bits", m.delivered_payload_bits);
  f("goodput_mean", m.per_flow_goodput_kbps_mean);
  f("jain", m.jain_fairness);
  f("p99", m.p99_completion_s);
  u("delivered", m.delivered_packets);
  u("waived", m.waived_packets);
  u("data_sent", m.data_packets_sent);
  u("source_rtx", m.source_retransmissions);
  u("cache_rtx", m.cache_retransmissions);
  u("acks", m.acks_sent);
  u("queue_drops", m.queue_drops);
  u("attempt_drops", m.attempt_drops);
  u("budget_drops", m.energy_budget_drops);
  u("route_drops", m.route_drops);
  u("xmits", m.transmissions);
  for (const double e : m.per_node_energy_j) f("e", e);
  for (const auto& fl : r.flows) {
    f("start", fl.start_time);
    f("done", fl.completed_at);
    u("dlv", fl.delivered);
  }
  u("events", r.events);
  u("event_pool_hw", r.event_pool_hw);
  u("spill_allocs", r.spill_allocs);
  u("packet_pool_hw", r.packet_pool_hw);
  u("moves", r.moves);
  u("rows_built_setup", r.rows_built_setup);
  u("refreshes", r.rs.refreshes);
  u("snapshots", r.rs.snapshots);
  u("rows_built", r.rs.rows_built);
  u("row_reuses", r.rs.row_reuses);
  u("rows_kept", r.rs.rows_kept);
  u("rows_repaired", r.rs.rows_repaired);
  u("repair_visits", r.rs.repair_visits);
  u("recolors", r.ms.recolors);
  u("colors", r.ms.colors_used);
  u("loss_lookups", r.cs.loss.lookups);
  u("dwell_lookups", r.cs.dwell.lookups);
  u("rehashes", r.cs.loss.rehashes + r.cs.dwell.rehashes);
  return s;
}

// Snapshots handed to the probes: the topology after build plus at most
// this many chunk-boundary copies, evenly spaced over the run.
constexpr std::size_t kMaxSnapshots = 12;
// Coloring-comparison samples per simulated second (mobile tdma_reuse).
constexpr double kComparePerSecond = 8.0;
// Row-build probe: cold next_hop for at most this many flow sources.
constexpr std::size_t kProbeSources = 8;

// Runs the probes on the captured snapshots, after the event loop.
void run_probes(const exp::ScenarioSpec& spec,
                const std::vector<phy::Topology>& snaps,
                const exp::FlowManager& fm, Tracer& tr, TraceOut& t) {
  std::vector<std::pair<core::NodeId, core::NodeId>> pairs;
  for (const auto& f : fm.flows()) {
    bool seen = false;
    for (const auto& p : pairs) seen = seen || p.first == f->src;
    if (!seen) pairs.emplace_back(f->src, f->dst);
    if (pairs.size() == kProbeSources) break;
  }
  const auto routing_cfg = exp::make_network_config(spec).routing;
  std::vector<core::NodeId> nbrs;
  for (const auto& snap : snaps) {
    // The loop's own calls run on a cache-warm topology, so each timed
    // probe call follows an untimed warm-up call on the same snapshot.
    for (int rep = 0; rep < 2; ++rep) {
      const int id = tr.begin("phy.neighbors_probe");
      for (core::NodeId v = 0; v < snap.size(); ++v)
        snap.neighbors_into(v, nbrs);
      const double ns = tr.end(id) * 1e9 / static_cast<double>(snap.size());
      if (rep == 1) t.neighbors_ns.push_back(ns);
    }
    for (int rep = 0; rep < 2; ++rep) {
      const int id = tr.begin("mac.color_probe");
      mac::color_interference(snap, spec.reuse_margin);
      const double ms = tr.end(id) * 1e3;
      if (rep == 1) t.recolor_ms.push_back(ms);
    }

    sim::Simulator probe_sim;
    routing::LinkStateRouting fresh(probe_sim, snap, routing_cfg);
    for (const auto& [src, dst] : pairs) {
      const int id = tr.begin("routing.row_probe");
      fresh.next_hop(src, dst);
      t.row_build_us.push_back(tr.end(id) * 1e6);
    }
  }
}

// The traced event loop: 1-simulated-second chunks; on mobile workloads
// event by event so each topology generation is visible.
void traced_loop(const exp::ScenarioSpec& spec, double horizon,
                 net::Network& net, Tracer& tr, TraceOut& t,
                 std::vector<phy::Topology>& snaps) {
  auto& sim = net.simulator();
  const bool stepping = spec.speed_mps > 0.0;
  const bool compare = stepping && spec.mac == mac::Mac::kTdmaReuse;
  const auto chunks = static_cast<std::size_t>(std::ceil(horizon - 1e-9));
  const std::size_t stride =
      std::max<std::size_t>(1, (chunks + kMaxSnapshots - 1) / kMaxSnapshots);
  std::uint64_t snap_gen = net.topology().generation();

  if (stepping) {  // starts routing refresh and mobility
    const int id = tr.begin("net.start");
    net.run_until(0.0);
    t.loop_s += tr.end(id);
  }
  std::optional<mac::Coloring> armed;
  std::uint64_t armed_gen = 0;
  double next_arm = 0.0;
  const int loop = tr.begin("sim.loop");
  for (std::size_t k = 1; k <= chunks; ++k) {
    const double chunk_end = std::min(static_cast<double>(k), horizon);
    const auto chunk_t0 = Clock::now();
    double probe_s = 0.0;
    if (stepping) {
      while (sim.pending() && sim.next_time() <= chunk_end) {
        if (compare && !armed && sim.now() >= next_arm) {
          const int id = tr.begin("mac.compare_probe");
          armed = mac::color_interference(net.topology(), spec.reuse_margin);
          armed_gen = net.topology().generation();
          probe_s += tr.end(id);
          next_arm =
              (std::floor(sim.now() * kComparePerSecond) + 1.0) /
              kComparePerSecond;
        }
        sim.step();
        if (armed && net.topology().generation() != armed_gen) {
          const int id = tr.begin("mac.compare_probe");
          if (net.topology().generation() == armed_gen + 1) {
            const auto now_col =
                mac::color_interference(net.topology(), spec.reuse_margin);
            ++t.colorings_compared;
            if (now_col.color != armed->color) ++t.colorings_changed;
          }
          armed.reset();
          probe_s += tr.end(id);
        }
      }
    }
    net.run_until(chunk_end);
    const double chunk_s = seconds_since(chunk_t0) - probe_s;
    t.chunk_ms.push_back(chunk_s * 1e3);
    t.loop_s += chunk_s;
    if (k % stride == 0 && net.topology().generation() != snap_gen) {
      const int id = tr.begin("phy.snapshot");
      snaps.push_back(net.topology());
      snap_gen = net.topology().generation();
      tr.end(id);
    }
  }
  tr.end(loop);
}

RunOut one_run(const exp::ScenarioSpec& spec, double horizon,
               Tracer* tr) {
  RunOut r;
  r.proto = spec.proto;
  r.spec = exp::to_string(spec);
  std::vector<phy::Topology> snaps;
  if (tr) r.trace.emplace();

  const int run_span = tr ? tr->begin("run " + r.spec) : -1;
  auto t0 = Clock::now();
  const int build_span = tr ? tr->begin("exp.build") : -1;
  auto s = exp::build(spec);
  r.build_s = tr ? tr->end(build_span) : seconds_since(t0);
  auto& net = *s.network;
  r.rows_built_setup = net.routing().stats().rows_built;
  const std::uint64_t gen0 = net.topology().generation();

  if (tr) {
    const int id = tr->begin("exp.make_topology");
    exp::make_topology(spec);
    r.trace->make_topology_s = tr->end(id);
    snaps.push_back(net.topology());
    traced_loop(spec, horizon, net, *tr, *r.trace, snaps);
  } else {
    t0 = Clock::now();
    net.run_until(horizon);
    r.run_s = seconds_since(t0);
  }

  const int collect_span = tr ? tr->begin("exp.collect") : -1;
  r.m = s.flows->collect(horizon);
  if (tr) r.trace->collect_s = tr->end(collect_span);

  for (const auto& f : s.flows->flows())
    r.flows.push_back({f->start_time, f->completed_at,
                       f->delivered_packets(), f->total_packets});
  r.events = net.total_events_executed();
  r.event_pool_hw = net.simulator().event_pool_stats().high_water;
  const auto& spill = net.simulator().callback_spill_stats();
  r.spill_allocs = spill.heap_allocs + spill.oversize_allocs;
  r.packet_pool_hw = net.packet_pool().stats().high_water;
  r.moves = net.topology().generation() - gen0;
  r.rs = net.routing().stats();
  r.ms = net.mac_fabric().stats();  // after the run: may recolor
  r.cs = net.channel().stats();

  // Public-counter invariants.
  for (const auto& f : r.flows) {
    if (f.total > 0 && f.delivered > f.total)
      r.violations.push_back("flow delivered more than its transfer");
    if (f.completed_at >= 0.0 && f.delivered != f.total)
      r.violations.push_back("finished flow did not deliver its transfer");
  }
  double energy_sum = 0.0;
  for (const double e : net.per_node_energy()) energy_sum += e;
  if (energy_sum != net.total_energy())
    r.violations.push_back("sum of per_node_energy != total_energy");
  r.fingerprint = fingerprint(r);

  if (tr) {
    const int id = tr->begin("probes");
    run_probes(spec, snaps, *s.flows, *tr, *r.trace);
    tr->end(id);
    tr->end(run_span);
  }
  return r;
}

// One batch: every seed of the workload, every protocol per seed.
struct Batch {
  std::vector<RunOut> runs;
  double wall_s = 0.0;  // summed run_until time; batch wall-clock if parallel
};

// Every protocol of the workload on one simulator seed.
Batch run_seed(const Workload& w, std::uint64_t sim_seed, Tracer* tr) {
  Batch b;
  for (const auto p : w.protos) {
    b.runs.push_back(one_run(spec_for(w, sim_seed, p), w.horizon_s, tr));
    b.wall_s += b.runs.back().run_s;
  }
  return b;
}

Batch run_batch(const Workload& w, std::uint64_t seed, std::size_t jobs,
                Tracer* tr) {
  const auto t0 = Clock::now();
  auto per_seed = exp::run_seeds_as(
      w.seeds, seed, [&](std::uint64_t s) { return run_seed(w, s, tr); },
      jobs);
  Batch b;
  for (auto& part : per_seed) {
    b.wall_s += part.wall_s;
    for (auto& r : part.runs) b.runs.push_back(std::move(r));
  }
  if (w.parallel) b.wall_s = seconds_since(t0);
  return b;
}

// --- calibration ----------------------------------------------------------

// A gauge of how fast the shared host runs this thread right now: a
// dependent random walk over a fixed 16 MiB cycle, which misses the
// per-core caches the way the simulator's own state does.
class Gauge {
 public:
  // Sattolo's shuffle makes next_ one cycle through every word, in place:
  // a second buffer freed here would move malloc's mmap threshold and,
  // with it, the simulator's peak RSS.
  Gauge() : next_(kGaugeWords) {
    for (std::uint32_t i = 0; i < kGaugeWords; ++i) next_[i] = i;
    std::mt19937_64 rng(1);
    for (std::size_t i = kGaugeWords - 1; i > 0; --i)
      std::swap(next_[i], next_[rng() % i]);
  }

  // Host time of the walk, fastest of three.
  double seconds() {
    double best = HUGE_VAL;
    for (int k = 0; k < 3; ++k) {
      const auto t0 = Clock::now();
      std::uint32_t at = pos_;
      for (std::size_t i = 0; i < kGaugeSteps; ++i) at = next_[at];
      asm volatile("" : : "r"(at) : "memory");  // the walk ends before t1
      best = std::min(best, seconds_since(t0));
      pos_ = at;
    }
    return best;
  }

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t pos_ = 0;
};

// Fastest times over the timed passes, each multiplied by that pass's
// scale.
struct Fastest {
  std::vector<double> run, build;  // per run of the batch
  double batch = HUGE_VAL;         // the whole batch

  void add(const Batch& b, double scale) {
    run.resize(b.runs.size(), HUGE_VAL);
    build.resize(b.runs.size(), HUGE_VAL);
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
      run[i] = std::min(run[i], b.runs[i].run_s * scale);
      build[i] = std::min(build[i], b.runs[i].build_s * scale);
    }
    batch = std::min(batch, b.wall_s * scale);
  }
  // Sum of the runs' fastest; the fastest whole batch when it ran in
  // parallel, where runs overlap.
  double wall(bool parallel) const {
    if (parallel) return batch;
    double s = 0.0;
    for (const double t : run) s += t;
    return s;
  }
};

// --- metrics ----------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, std::optional<double> v,
           const std::string& unit) {
    if (!perfbench::valid_metric_name(name) || !perfbench::valid_unit(unit))
      throw std::logic_error("bad metric name or unit: " + name);
    items_.push_back({name, v, unit});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const auto& it = items_[i];
      if (i) s += ",";
      s += json_string(it.name) + ":{\"value\":" + json_number(it.value) +
           ",\"unit\":" + json_string(it.unit) + "}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    std::optional<double> value;
    std::string unit;
  };
  std::vector<Item> items_;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename F>
double sum_of(const Batch& b, F&& f) {
  double s = 0.0;
  for (const auto& r : b.runs) s += static_cast<double>(f(r));
  return s;
}

std::optional<double> ratio(double num, double den) {
  if (den == 0.0) return std::nullopt;
  return num / den;
}

// End-to-end outputs of one batch (simulated values; identical for every
// timed pass and for the traced run).
void add_outputs(const Workload& w, const Batch& b, Metrics& out) {
  const double bits = sum_of(b, [](const RunOut& r) {
    return r.m.delivered_payload_bits;
  });
  const double energy =
      sum_of(b, [](const RunOut& r) { return r.m.total_energy_j; });
  out.add("goodput_kbps", bits / w.horizon_s / 1e3, "kbit/s");
  out.add("energy_uj_per_bit", ratio(energy * 1e6, bits), "uJ/bit");

  // Per-flow distribution metrics, only where they are defined: Jain over
  // long-lived flows, completion times over bounded transfers.
  std::vector<double> jain;
  std::vector<double> fct;
  std::size_t done = 0;
  for (const auto& r : b.runs) {
    bool long_lived = !r.flows.empty();
    for (const auto& f : r.flows) {
      long_lived = long_lived && f.total == 0;
      if (f.total == 0) continue;
      fct.push_back(perfbench::completion_time(f.start_time, f.completed_at));
      if (f.completed_at >= 0.0) ++done;
    }
    if (long_lived && r.m.delivered_packets > 0)
      jain.push_back(r.m.jain_fairness);
  }
  if (!jain.empty()) {
    double s = 0.0;
    for (const double j : jain) s += j;
    out.add("jain", s / static_cast<double>(jain.size()), "index");
  }
  if (!fct.empty()) {
    out.add("flows", static_cast<double>(fct.size()), "count");
    out.add("flows_done_frac",
            static_cast<double>(done) / static_cast<double>(fct.size()),
            "fraction");
    out.add("fct_p50_s", perfbench::percentile(fct, 50.0), "s");
    out.add("fct_p99_s", perfbench::percentile(fct, 99.0), "s");
    out.add("fct_beyond_p99",
            static_cast<double>(perfbench::beyond_percentile(fct, 99.0)),
            "count");
  }
}

// Per-layer metrics from the traced batch. Counts are means per run (a
// run is one seed x protocol), so they read the same for any batch size;
// host times are summed over the batch, like wall_s.
void add_layers(const Batch& timed, const Batch& traced, Metrics& out) {
  const auto& b = traced;
  const double n_runs = static_cast<double>(b.runs.size());
  auto per_run = [&](const char* name, auto field) {
    const double v = sum_of(b, field) / n_runs;
    out.add(name, v, "count");
    return v;
  };
  std::vector<double> chunk_ms, nbr_ns, recolor_ms, row_us;
  double loop_s = 0.0, make_topo_s = 0.0, collect_s = 0.0;
  std::uint64_t compared = 0, changed = 0;
  std::map<exp::Proto, double> proto_s;
  for (const auto& r : b.runs) {
    const auto& t = *r.trace;
    chunk_ms.insert(chunk_ms.end(), t.chunk_ms.begin(), t.chunk_ms.end());
    nbr_ns.insert(nbr_ns.end(), t.neighbors_ns.begin(), t.neighbors_ns.end());
    recolor_ms.insert(recolor_ms.end(), t.recolor_ms.begin(),
                      t.recolor_ms.end());
    row_us.insert(row_us.end(), t.row_build_us.begin(), t.row_build_us.end());
    loop_s += t.loop_s;
    make_topo_s += t.make_topology_s;
    collect_s += t.collect_s;
    compared += t.colorings_compared;
    changed += t.colorings_changed;
    proto_s[r.proto] += r.build_s + t.loop_s + t.collect_s;
  }
  // Shares are taken of the traced loop time, so the attributed work and
  // the time it is attributed against come from the same pass. The
  // overhead compares that loop with the timed batch's run_until time
  // (summed even for a parallel batch).
  const double timed_loop_s = sum_of(timed, [](const RunOut& r) {
    return r.run_s;
  });

  // sim
  const double events =
      per_run("sim.events", [](const RunOut& r) { return r.events; });
  out.add("sim.ns_per_event", ratio(loop_s * 1e9, events * n_runs), "ns");
  out.add("sim.step_ms_p50", perfbench::percentile(chunk_ms, 50.0), "ms");
  out.add("sim.step_ms_p99", perfbench::percentile(chunk_ms, 99.0), "ms");
  per_run("sim.event_pool_hw", [](const RunOut& r) { return r.event_pool_hw; });
  per_run("sim.spill_allocs", [](const RunOut& r) { return r.spill_allocs; });
  // phy
  per_run("phy.moves", [](const RunOut& r) { return r.moves; });
  out.add("phy.neighbors_ns", perfbench::median(nbr_ns), "ns");
  per_run("phy.loss_lookups", [](const RunOut& r) { return r.cs.loss.lookups; });
  per_run("phy.link_rehashes", [](const RunOut& r) {
    return r.cs.loss.rehashes + r.cs.dwell.rehashes;
  });
  // mac
  const double recolors =
      per_run("mac.recolors", [](const RunOut& r) { return r.ms.recolors; });
  per_run("mac.colors", [](const RunOut& r) { return r.ms.colors_used; });
  const auto recolor_med = perfbench::median(recolor_ms);
  out.add("mac.recolor_ms", recolor_med, "ms");
  out.add("mac.recolor_share",
          ratio(recolors * n_runs * recolor_med.value_or(0.0) * 1e-3, loop_s),
          "fraction");
  if (compared > 0) {
    out.add("mac.recolor_useful_frac",
            static_cast<double>(changed) / static_cast<double>(compared),
            "fraction");
    out.add("mac.recolor_compared", static_cast<double>(compared), "count");
  }
  const double xmits = per_run("mac.transmissions", [](const RunOut& r) {
    return r.m.transmissions;
  });
  per_run("mac.queue_drops", [](const RunOut& r) { return r.m.queue_drops; });
  per_run("mac.attempt_drops",
          [](const RunOut& r) { return r.m.attempt_drops; });
  per_run("mac.energy_budget_drops",
          [](const RunOut& r) { return r.m.energy_budget_drops; });
  const double delivered =
      sum_of(b, [](const RunOut& r) { return r.m.delivered_packets; }) /
      n_runs;
  out.add("mac.tx_per_pkt", ratio(xmits, delivered), "ratio");
  // routing
  const double built =
      per_run("routing.rows_built", [](const RunOut& r) {
        return r.rs.rows_built;
      });
  const double built_setup = per_run(
      "routing.rows_built_setup",
      [](const RunOut& r) { return r.rows_built_setup; });
  const double reuses = per_run(
      "routing.row_reuses", [](const RunOut& r) { return r.rs.row_reuses; });
  per_run("routing.snapshots", [](const RunOut& r) { return r.rs.snapshots; });
  const double kept =
      per_run("routing.rows_kept", [](const RunOut& r) {
        return r.rs.rows_kept;
      });
  const double repaired = per_run(
      "routing.rows_repaired", [](const RunOut& r) { return r.rs.rows_repaired; });
  per_run("routing.repair_visits",
          [](const RunOut& r) { return r.rs.repair_visits; });
  per_run("routing.route_drops", [](const RunOut& r) { return r.m.route_drops; });
  const auto row_med = perfbench::median(row_us);
  out.add("routing.row_build_us", row_med, "us");
  out.add("routing.share",
          ratio((built - built_setup) * n_runs * row_med.value_or(0.0) * 1e-6,
                loop_s),
          "fraction");
  out.add("routing.row_hit_frac", ratio(reuses, reuses + built), "fraction");
  out.add("routing.repair_frac",
          ratio(kept + repaired, kept + repaired + built), "fraction");
  // core / baselines
  const double sent = per_run("core.data_sent", [](const RunOut& r) {
    return r.m.data_packets_sent;
  });
  per_run("core.source_rtx",
          [](const RunOut& r) { return r.m.source_retransmissions; });
  per_run("core.cache_rtx",
          [](const RunOut& r) { return r.m.cache_retransmissions; });
  per_run("core.acks_sent", [](const RunOut& r) { return r.m.acks_sent; });
  out.add("core.delivered_per_sent", ratio(delivered, sent), "ratio");
  per_run("core.packet_pool_hw",
          [](const RunOut& r) { return r.packet_pool_hw; });
  // Host time of each protocol's runs; 0 s for a protocol the workload
  // does not run.
  const std::pair<const char*, exp::Proto> protos[] = {
      {"core.jtp_s", exp::Proto::kJtp},
      {"core.jtp_dr_s", exp::Proto::kJtpDr},
      {"baselines.tcp_s", exp::Proto::kTcp},
      {"baselines.atp_s", exp::Proto::kAtp},
      {"baselines.bbr_s", exp::Proto::kBbr}};
  for (const auto& [name, p] : protos) {
    const auto it = proto_s.find(p);
    out.add(name, it == proto_s.end() ? 0.0 : it->second, "s");
  }
  // exp
  out.add("exp.make_topology_s", make_topo_s, "s");
  out.add("exp.collect_s", collect_s, "s");
  // trace
  const auto rel = ratio(loop_s, timed_loop_s);
  out.add("trace.overhead_frac", rel ? std::optional(*rel - 1.0) : rel,
          "fraction");
}

// FNV-1a over every run's fingerprint: two records of the same workload
// and seed carry equal digests when their simulated outputs are identical
// (and, barring a 64-bit collision, different ones otherwise).
std::string outputs_digest(const Batch& b) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& r : b.runs)
    for (const unsigned char c : r.fingerprint) {
      h ^= c;
      h *= 1099511628211ull;
    }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- checks -----------------------------------------------------------------

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  // Counts every run of `b`; a run fails on an invariant violation or,
  // given a reference batch, on any simulated output differing from it.
  void batch(const Batch& b, const Batch* ref, const char* what) {
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
      const auto& r = b.runs[i];
      ++attempted;
      std::string err;
      if (!r.violations.empty()) err = r.violations.front();
      if (ref && (i >= ref->runs.size() ||
                  ref->runs[i].fingerprint != r.fingerprint))
        err = std::string(what) + " differs from the first timed run";
      if (!err.empty()) {
        ++failed;
        errors.push_back(r.spec + ": " + err);
      }
    }
  }
};

// --- main -------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "workloads:",
               msg);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno || end == s || *end || s[0] == '-')
    usage((std::string("bad value for ") + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_out;
  std::optional<std::uint64_t> seed, seconds, trace;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") name = v;
    else if (a == "--seed") seed = parse_uint(v, "--seed");
    else if (a == "--seconds") seconds = parse_uint(v, "--seconds");
    else if (a == "--trace") trace = parse_uint(v, "--trace");
    else if (a == "--trace-out") trace_out = v;
    else usage(("unknown flag " + a).c_str());
  }
  if (name.empty() || !seed || !seconds || !trace || *trace > 1 ||
      *seconds == 0)
    usage("missing or invalid arguments");
  const Workload* w = nullptr;
  for (const auto& cand : workloads())
    if (name == cand.name) w = &cand;
  if (!w) usage(("unknown workload " + name).c_str());

  // Release guard: timings from any other build are refused.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to report timings from a '%s' "
                 "build%s; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), asserts ? " with assertions" : "");
    return 3;
  }

  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  const std::size_t jobs = w->parallel ? std::max<std::size_t>(1, nproc / 2)
                                       : 1;
  Metrics metrics;
  Checks checks;
  std::size_t passes = 0;
  std::string digest;
  std::vector<double> fastest_run;  // timed run: raw, per run of the batch
  try {
    if (*trace == 0) {
      // Timed passes over the same batch: at least kMinPasses, then more
      // while another one fits in the time. Noise on a shared host only
      // ever adds time, so each run keeps its fastest pass (the batch
      // keeps its fastest pass when it runs in parallel). The host's
      // speed also drifts in phases of tens of seconds; the gauge, read
      // before and after every pass, measures it, and wall_s and setup_s
      // are given in reference seconds: host time scaled by
      // kReferenceGaugeS / (the pass's mean gauge time). The unscaled
      // figures stay in the record.
      Gauge gauge;
      Fastest raw, ref;
      std::vector<double> gauges;
      std::optional<Batch> first;
      const auto t0 = Clock::now();
      double gauge_before = gauge.seconds();
      do {
        Batch b = run_batch(*w, *seed, jobs, nullptr);
        const double gauge_after = gauge.seconds();
        const double g = 0.5 * (gauge_before + gauge_after);
        gauge_before = gauge_after;
        gauges.push_back(g);
        raw.add(b, 1.0);
        ref.add(b, kReferenceGaugeS / g);
        checks.batch(b, first ? &*first : nullptr, "a repeated timed run");
        if (!first) first = std::move(b);
        ++passes;
      } while (passes < kMinPasses ||
               seconds_since(t0) * (passes + 1.0) / passes <=
                   static_cast<double>(*seconds));
      digest = outputs_digest(*first);
      fastest_run = raw.run;
      metrics.add("wall_s", ref.wall(w->parallel), "s");
      metrics.add("setup_s", perfbench::median(ref.build), "s");
      metrics.add("wall_raw_s", raw.wall(w->parallel), "s");
      metrics.add("setup_raw_s", perfbench::median(raw.build), "s");
      metrics.add("gauge_ms", perfbench::median(gauges).value_or(0.0) * 1e3,
                  "ms");
      metrics.add("peak_rss_mb", peak_rss_mib(), "MiB");
      add_outputs(*w, *first, metrics);
    } else {
      // A serial workload alternates timed and traced runs seed by seed,
      // so both see the same machine state and the overhead is not the
      // first run's warm-up. A parallel batch is timed whole, then traced
      // at jobs=1.
      Tracer tracer;
      Batch timed, traced;
      const int id = tracer.begin(std::string("batch ") + w->name);
      if (w->parallel) {
        timed = run_batch(*w, *seed, jobs, nullptr);
        traced = run_batch(*w, *seed, 1, &tracer);
      } else {
        for (std::size_t i = 0; i < w->seeds; ++i) {
          const Batch t = run_seed(*w, exp::seed_for_run(*seed, i), nullptr);
          const Batch tr = run_seed(*w, exp::seed_for_run(*seed, i), &tracer);
          timed.wall_s += t.wall_s;
          for (const auto& r : t.runs) timed.runs.push_back(r);
          for (const auto& r : tr.runs) traced.runs.push_back(r);
        }
      }
      tracer.end(id);
      checks.batch(timed, nullptr, "");
      checks.batch(traced, &timed, "the traced run");
      passes = 1;
      digest = outputs_digest(timed);
      add_outputs(*w, timed, metrics);
      add_layers(timed, traced, metrics);
      if (!trace_out.empty() && !tracer.write(trace_out))
        throw std::runtime_error("cannot write " + trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  std::string protos;
  for (const auto p : w->protos)
    protos += (protos.empty() ? "" : ",") + exp::proto_name(p);
  std::string errors = "[";
  for (std::size_t i = 0; i < checks.errors.size(); ++i)
    errors += (i ? "," : "") + json_string(checks.errors[i]);
  errors += "]";
  std::string fastest_json = "[";
  for (std::size_t i = 0; i < fastest_run.size(); ++i)
    fastest_json += (i ? "," : "") + json_number(fastest_run[i]);
  fastest_json += "]";
  std::printf(
      "{\"workload\":%s,\"spec\":%s,\"protos\":%s,\"horizon_s\":%s,"
      "\"seeds_per_batch\":%zu,\"seed\":%llu,\"trace\":%llu,\"passes\":%zu,"
      "\"jobs\":%zu,\"nproc\":%zu,\"build_type\":%s,\"compiler\":%s,"
      "\"outputs_fnv1a64\":%s,\"correct\":%s,\"attempted\":%zu,"
      "\"failed\":%zu,\"errors\":%s,\"fastest_run_s\":%s,"
      "\"metrics\":%s}\n",
      json_string(w->name).c_str(), json_string(w->spec).c_str(),
      json_string(protos).c_str(), json_number(w->horizon_s).c_str(),
      w->seeds, static_cast<unsigned long long>(*seed),
      static_cast<unsigned long long>(*trace), passes, jobs,
      nproc, json_string(build_type).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), json_string(digest).c_str(),
      checks.failed == 0 ? "true" : "false", checks.attempted, checks.failed,
      errors.c_str(), fastest_json.c_str(), metrics.json().c_str());
  return checks.failed == 0 ? 0 : 1;
}

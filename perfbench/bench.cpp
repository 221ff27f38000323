// perfbench: one repetition of one benchmark workload, timed from outside
// the simulator's public API. Prints one JSON object on stdout.
//
// The orchestrator (run.py) launches this binary once per repetition so
// every repetition gets its own process (peak RSS and CPU time are then
// per-repetition) and its own scratch directory. This program never
// copies the simulator's run loop: it times calls into the layers' public
// functions and reads the splits the program already reports
// (ExperimentResult::sim_wall_s, lp_phases, metrics; CampaignStats;
// Profiler phases).
//
// usage:
//   perfbench_rep --kind=campaign --seed=N --duration=S --threads=T
//                 --work-dir=DIR [--layers=1]
//   perfbench_rep --kind=single --seed=N --clients=N --duration=S --lp=K
//                 [--meanfield-base=N0] [--trace-sink=1]
//                 --work-dir=DIR [--layers=1]
//
// --layers=1 is the traced run: it records the per-layer metrics (profile
// phases, topology build, store reload, warm campaign) on top of the
// untraced measurements. Spans are recorded in both modes; they cost a
// handful of clock reads per repetition.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/scenario.hpp"
#include "src/obs/profile.hpp"
#include "src/obs/trace.hpp"
#include "src/run/campaign.hpp"
#include "src/run/result_store.hpp"
#include "src/run/scenario_key.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/partition.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---- Spans ---------------------------------------------------------------
// Kept in memory and emitted once with the result. `synth` marks a span
// laid out from a split the program reports (its duration is measured,
// its placement inside the parent is not).
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  bool synth = false;
};

class Spans {
 public:
  int begin(const std::string& name) {
    spans_.push_back({name, now_s(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double end(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    open_.pop_back();
    return duration(id);
  }
  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.t1 - s.t0;
  }
  /// Children of @p parent laid back to back from @p t0, one per split.
  void synthesize(int parent, double t0,
                  const std::vector<std::pair<std::string, double>>& parts) {
    for (const auto& [name, secs] : parts) {
      spans_.push_back({name, t0, t0 + secs, parent, true});
      t0 += secs;
    }
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- JSON output -----------------------------------------------------------
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? ", " : "") + quote(k) + ": " + num(v);
  }
  return out + "}";
}

// ---- Correctness -----------------------------------------------------------
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Invariants every simulation must satisfy on any seed; names the
  /// first few violations.
  void simulation(const ExperimentResult& r, const std::string& label) {
    ++attempted;
    std::vector<std::string> bad;
    const auto counter = [&](const std::string& name) -> double {
      const MetricPoint* m = r.metrics.find(name);
      if (m == nullptr) bad.push_back(label + ": missing metric " + name);
      return m != nullptr ? m->value : 0.0;
    };
    if (r.routing_errors != 0) {
      bad.push_back(label + ": routing_errors=" +
                    std::to_string(r.routing_errors));
    }
    // Queue conservation at the gateway: every arrival departed, was
    // dropped, or is still queued (at most a buffer's worth). Sharded runs
    // go through the generic TopoNet path, which names the queue
    // "measured" instead of "gateway".
    const std::string q = r.metrics.find("queue.gateway.arrivals") != nullptr
                              ? "queue.gateway."
                              : "queue.measured.";
    const double arrivals = counter(q + "arrivals");
    const double departures = counter(q + "departures");
    const double drops = counter(q + "drops");
    const double residual = arrivals - departures - drops;
    if (arrivals != static_cast<double>(r.gw_arrivals) ||
        drops != static_cast<double>(r.gw_drops) || residual < 0.0 ||
        residual > static_cast<double>(r.scenario.scaled_gateway_buffer())) {
      bad.push_back(label + ": gateway queue not conserved (arrivals " +
                    num(arrivals) + ", departures " + num(departures) +
                    ", drops " + num(drops) + ")");
    }
    // In-order delivery <= distinct packets at the sinks (which include
    // out-of-order ones still buffered) <= data packets sent. UDP has no
    // transport counters.
    const bool tcp = r.scenario.transport != Transport::kUdp;
    const double unique = tcp ? counter("sink.unique_packets") : 0.0;
    if (r.delivered == 0 || r.delivered > r.app_generated ||
        (tcp && (static_cast<double>(r.delivered) > unique ||
                 unique > static_cast<double>(r.data_pkts_sent)))) {
      bad.push_back(label + ": delivered " + std::to_string(r.delivered) +
                    " inconsistent with source/sink/sender counters");
    }
    if (counter("sched.events") != static_cast<double>(r.sim_events)) {
      bad.push_back(label + ": sched.events != sim_events");
    }
    if (!r.lp_phases.empty()) {
      std::uint64_t lp_events = 0;
      for (const LpPhase& p : r.lp_phases) lp_events += p.events;
      if (lp_events != r.sim_events) {
        bad.push_back(label + ": per-LP events sum " +
                      std::to_string(lp_events) + " != sim_events " +
                      std::to_string(r.sim_events));
      }
    }
    for (auto& b : bad) {
      if (failures.size() < 8) failures.push_back(std::move(b));
    }
    if (!bad.empty()) ++failed;
  }
};

// ---- Aggregated counts ------------------------------------------------------
struct Counts {
  std::map<std::string, double> v;
  void add(const ExperimentResult& r) {
    const MetricPoint* sched = r.metrics.find("sched.scheduled");
    v["sim.events"] += static_cast<double>(r.sim_events);
    v["sim.scheduled"] += sched != nullptr ? sched->value : 0.0;
    v["sim.peak_pending"] =
        std::max(v["sim.peak_pending"], static_cast<double>(r.peak_pending));
    v["delivered"] += static_cast<double>(r.delivered);
    v["net.gw_arrivals"] += static_cast<double>(r.gw_arrivals);
    v["net.gw_drops"] += static_cast<double>(r.gw_drops);
    v["transport.data_pkts_sent"] += static_cast<double>(r.data_pkts_sent);
    v["transport.retransmits"] += static_cast<double>(r.retransmits);
    v["transport.timeouts"] += static_cast<double>(r.timeouts);
    if (r.scenario.transport != Transport::kUdp) {
      v["transport.delivered"] += static_cast<double>(r.delivered);
    }
  }
  /// Per-layer work metrics derived from the sums.
  void derive(std::map<std::string, double>* layer, double sim_wall_s) const {
    for (const char* k :
         {"sim.events", "sim.scheduled", "sim.peak_pending", "net.gw_arrivals",
          "net.gw_drops", "transport.data_pkts_sent", "transport.retransmits",
          "transport.timeouts"}) {
      (*layer)[k] = v.at(k);
    }
    const double arrivals = v.at("net.gw_arrivals");
    const double sent = v.at("transport.data_pkts_sent");
    (*layer)["net.drop_frac"] = arrivals > 0 ? v.at("net.gw_drops") / arrivals : 0;
    (*layer)["transport.goodput_ratio"] =
        sent > 0 ? v.at("transport.delivered") / sent : 0;
    (*layer)["sim.ns_per_event"] =
        v.at("sim.events") > 0 ? 1e9 * sim_wall_s / v.at("sim.events") : 0;
  }
};

void profile_shares(const std::array<double, kProfilePhases>& secs,
                    std::map<std::string, double>* layer) {
  double total = 0.0;
  for (const double s : secs) total += s;
  const auto share = [&](ProfilePhase p) {
    return total > 0 ? secs[static_cast<std::size_t>(p)] / total : 0.0;
  };
  (*layer)["profile.dispatch_share"] = share(ProfilePhase::kDispatch);
  (*layer)["profile.transport_share"] = share(ProfilePhase::kTransport);
  (*layer)["profile.queue_share"] = share(ProfilePhase::kQueue);
}

/// The Profiler's hot-path phases as child spans: dispatch belongs to the
/// scheduler, transport handling to transport, queue decisions to net.
/// Its "other" phase is everything outside those scopes while installed
/// (network build and result collection included), so callers place it.
std::vector<std::pair<std::string, double>> phase_spans(
    const std::array<double, kProfilePhases>& secs, double scale) {
  const auto s = [&](ProfilePhase p) {
    return secs[static_cast<std::size_t>(p)] * scale;
  };
  return {{"sim.dispatch", s(ProfilePhase::kDispatch)},
          {"transport.packet_handling", s(ProfilePhase::kTransport)},
          {"net.queue_discipline", s(ProfilePhase::kQueue)}};
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

struct Args {
  std::string kind;
  std::uint64_t seed = 1;
  double duration = 20.0;
  unsigned threads = 1;
  int clients = 60;
  int lp = 1;
  int meanfield_base = 0;
  bool trace_sink = false;
  bool layers = false;
  std::string work_dir;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Outcome {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double sim_wall_s = 0.0;
  Checks checks;
  Counts counts;
  std::map<std::string, double> layer;
  std::map<std::string, double> params;
};

/// Stamps the first write to the stream it backs. run_campaign logs its
/// first line once the plan is built and the store opened and probed,
/// just before the first simulation starts: the end of its set-up.
class FirstWriteClock : public std::streambuf {
 public:
  double first_s = -1.0;

 protected:
  int overflow(int c) override {
    stamp();
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    stamp();
    return n;
  }

 private:
  void stamp() {
    if (first_s < 0.0) first_s = now_s();
  }
};

// The cold paper figure campaign over an empty store, then (traced run
// only) a reload of the filled store and a warm re-run over it.
Outcome run_paper_campaign(const Args& a, Spans& spans) {
  Outcome o;
  const std::string cache = a.work_dir + "/cache";
  const double t0 = now_s();
  int sp = spans.begin("run.paper_figure_campaign");
  Scenario base = Scenario::paper_default();
  base.seed = a.seed;
  base.duration = a.duration;
  const std::vector<CampaignSweep> sweeps = paper_figure_campaign(base);
  spans.end(sp);

  FirstWriteClock planned;
  std::ostream log(&planned);
  CampaignOptions opts;
  opts.cache_dir = cache;
  opts.threads = a.threads;
  opts.artifact_dir = a.work_dir + "/out";
  opts.profile = a.layers;
  opts.log = &log;
  const int cold_sp = spans.begin("run.run_campaign.cold");
  const CampaignOutput cold = run_campaign(sweeps, opts);
  spans.end(cold_sp);
  o.wall_s = now_s() - t0;
  // Set-up: the figure plan, then run_campaign's own planning, store open
  // and cache probe, which end at its first log line.
  o.setup_s = planned.first_s - t0;
  spans.synthesize(cold_sp, spans.all()[static_cast<std::size_t>(cold_sp)].t0,
                   {{"run.campaign.plan_and_open_store",
                     planned.first_s -
                         spans.all()[static_cast<std::size_t>(cold_sp)].t0}});

  const CampaignStats& st = cold.stats;
  if (st.planned != 267 || st.unique != 137 || st.simulated != 137 ||
      st.cache_hits != 0 || st.store_skipped != 0) {
    o.checks.failures.push_back(
        "campaign plan: planned " + std::to_string(st.planned) + ", unique " +
        std::to_string(st.unique) + ", simulated " +
        std::to_string(st.simulated) + ", cache hits " +
        std::to_string(st.cache_hits) + " (want 267/137/137/0)");
  }
  // Figures 3, 4 and 13 share their points: count each unique scenario once.
  std::set<std::string> seen;
  std::vector<double> per_sim_wall;
  for (const auto& [name, series] : cold.sweeps) {
    for (const SweepSeries& s : series) {
      for (const SweepPoint& p : s.points) {
        if (!seen.insert(scenario_key(p.result.scenario).hex()).second) continue;
        o.checks.simulation(p.result, name + "/" + s.name + "/N=" +
                                          std::to_string(p.num_clients));
        o.counts.add(p.result);
        per_sim_wall.push_back(p.result.sim_wall_s);
      }
    }
  }
  o.sim_wall_s = st.sim_wall_s;
  o.params = {{"clients_min", 4}, {"clients_max", 60},
              {"duration_s", a.duration}, {"lp", 1},
              {"threads", static_cast<double>(a.threads)},
              {"unique_sims", static_cast<double>(seen.size())}};
  if (!a.layers) return o;

  // Per-task profiles summed over the executor threads, scaled to fit the
  // campaign's wall; "other" is each run_experiment outside the hot path.
  const double per_thread = 1.0 / static_cast<double>(a.threads);
  auto phases = phase_spans(st.phase_seconds, per_thread);
  phases.emplace_back(
      "core.other",
      st.phase_seconds[static_cast<std::size_t>(ProfilePhase::kOther)] *
          per_thread);
  spans.synthesize(cold_sp, planned.first_s, phases);
  o.layer["run.executor.busy_frac"] =
      st.sim_wall_s / (static_cast<double>(a.threads) * st.wall_s);
  o.layer["run.store.bytes"] = static_cast<double>(dir_bytes(cache));
  sp = spans.begin("run.ResultStore.open_filled");
  std::size_t loaded = 0;
  {
    const ResultStore store(cache);
    loaded = store.size();
  }
  o.layer["run.store.load_s"] = spans.end(sp);
  if (loaded != 137) {
    o.checks.failures.push_back("store reload: " + std::to_string(loaded) +
                                " entries, want 137");
  }
  CampaignOptions warm_opts = opts;
  warm_opts.profile = false;
  warm_opts.artifact_dir = a.work_dir + "/out_warm";
  sp = spans.begin("run.run_campaign.warm");
  const CampaignOutput warm = run_campaign(sweeps, warm_opts);
  o.layer["run.campaign.warm_s"] = spans.end(sp);
  if (warm.stats.cache_hits != 137 || warm.stats.simulated != 0) {
    o.checks.failures.push_back(
        "warm campaign: cache hits " + std::to_string(warm.stats.cache_hits) +
        ", simulated " + std::to_string(warm.stats.simulated) +
        " (want 137/0)");
  }
  o.layer["core.experiment.p50_s"] = quantile(per_sim_wall, 0.5);
  o.layer["core.experiment.p90_s"] = quantile(per_sim_wall, 0.9);
  profile_shares(st.phase_seconds, &o.layer);
  return o;
}

Scenario single_scenario(const Args& a) {
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.num_clients = a.clients;
  sc.meanfield_base = a.meanfield_base;
  sc.duration = a.duration;
  sc.seed = a.seed;
  return sc;
}

// One Reno/RED dumbbell run through run_experiment, optionally with a
// TraceSink on every tap whose records are exported as JSONL + Perfetto.
Outcome run_single(const Args& a, Spans& spans) {
  Outcome o;
  const Scenario sc = single_scenario(a);
  o.params = {{"clients", static_cast<double>(a.clients)},
              {"duration_s", a.duration},
              {"lp", static_cast<double>(a.lp)},
              {"meanfield_base", static_cast<double>(a.meanfield_base)},
              {"threads", static_cast<double>(a.lp)},
              {"trace_sink", a.trace_sink ? 1.0 : 0.0}};

  if (a.layers) {
    // Topology build and partition, timed on their own: run_experiment
    // builds the same TopoNet internally but reports no split for it.
    int sp = spans.begin("topo.build");
    {
      Simulator sim(sc.seed);
      const int spec_sp = spans.begin("topo.make_dumbbell_spec");
      const TopoSpec spec = make_dumbbell_spec(sc);
      spans.end(spec_sp);
      const int net_sp = spans.begin("topo.TopoNet");
      const TopoNet net(sim, spec);
      spans.end(net_sp);
      o.layer["transport.arena_bytes_per_flow"] =
          static_cast<double>(net.arena_bytes_reserved()) / net.num_flows();
      if (a.lp > 1) {
        const int part_sp = spans.begin("parallel.make_lp_partition");
        const LpPartition part = make_lp_partition(spec, a.lp);
        spans.end(part_sp);
        if (part.shards != a.lp) {
          o.checks.failures.push_back("partition clamped to " +
                                      std::to_string(part.shards) + " LPs: " +
                                      part.note);
        }
      }
      o.layer["topo.build_s"] = spans.duration(spec_sp) + spans.duration(net_sp);
    }
    spans.end(sp);
  }

  const double t0 = now_s();
  std::unique_ptr<TraceSink> sink;
  ExperimentOptions opts;
  opts.lp_shards = a.lp;
  if (a.trace_sink) {
    const int sp = spans.begin("obs.TraceSink.construct");
    sink = std::make_unique<TraceSink>();
    spans.end(sp);
    opts.trace = sink.get();
  }
  const double sink_s = now_s() - t0;

  Profiler prof;
  Profiler* prev = a.layers ? Profiler::install(&prof) : nullptr;
  int sp = spans.begin("core.run_experiment");
  const ExperimentResult r = run_experiment(sc, opts);
  const double exp_s = spans.end(sp);
  if (a.layers) Profiler::install(prev);
  o.sim_wall_s = r.sim_wall_s;
  o.setup_s = sink_s + (exp_s - r.sim_wall_s);
  // run_experiment's reported split: the simulation loop inside it, placed
  // after the network build; the profile phases split the loop by layer.
  const double sim_t0 = spans.all()[static_cast<std::size_t>(sp)].t1 -
                        r.sim_wall_s;
  spans.synthesize(sp, sim_t0, {{"sim.run", r.sim_wall_s}});
  if (a.layers && a.lp == 1) {
    std::array<double, kProfilePhases> secs{};
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
      secs[i] = prof.seconds(static_cast<ProfilePhase>(i));
    }
    spans.synthesize(static_cast<int>(spans.all().size()) - 1, sim_t0,
                     phase_spans(secs, 1.0));
    profile_shares(secs, &o.layer);
  }

  o.checks.simulation(r, sc.label());
  o.counts.add(r);
  if (a.lp > 1 && r.lp_shards != a.lp) {
    o.checks.failures.push_back("ran on " + std::to_string(r.lp_shards) +
                                " LPs, want " + std::to_string(a.lp));
  }

  if (sink) {
    const std::string stem = a.work_dir + "/trace";
    const int ex = spans.begin("obs.export");
    const auto write = [&](const std::string& name, const std::string& path,
                           bool (TraceSink::*fn)(std::ostream&) const) {
      const int id = spans.begin(name);
      std::ofstream f(path);
      const bool ok = (sink.get()->*fn)(f);
      f.close();
      spans.end(id);
      if (!ok || !f) o.checks.failures.push_back("trace export failed: " + path);
    };
    write("obs.TraceSink.write_jsonl", stem + ".jsonl", &TraceSink::write_jsonl);
    write("obs.TraceSink.write_chrome_trace", stem + ".perfetto.json",
          &TraceSink::write_chrome_trace);
    const double export_s = spans.end(ex);
    if (sink->dropped() != 0 || sink->emitted() == 0) {
      o.checks.failures.push_back(
          "trace ring: " + std::to_string(sink->emitted()) + " emitted, " +
          std::to_string(sink->dropped()) + " overwritten");
    }
    o.counts.v["obs.trace_records"] = static_cast<double>(sink->emitted());
    o.layer["obs.trace_records"] = static_cast<double>(sink->emitted());
    o.layer["obs.trace_reserved_mb"] =
        static_cast<double>(sink->capacity() * sizeof(TraceRecord)) / 1e6;
    o.layer["obs.trace_export_s"] = export_s;
    o.layer["obs.trace_export_mb"] =
        static_cast<double>(dir_bytes(a.work_dir)) / 1e6;
  }
  o.wall_s = now_s() - t0;

  if (!r.lp_phases.empty()) {
    double run = 0, wait = 0, msgs = 0, hw = 0;
    double ev_max = 0, ev_min = 1e300;
    for (const LpPhase& p : r.lp_phases) {
      run += p.run_s;
      wait += p.wait_s;
      msgs += static_cast<double>(p.msgs_in);
      hw = std::max(hw, static_cast<double>(p.merge_high_water));
      ev_max = std::max(ev_max, static_cast<double>(p.events));
      ev_min = std::min(ev_min, static_cast<double>(p.events));
    }
    o.layer["parallel.windows"] = static_cast<double>(r.lp_phases.front().windows);
    o.layer["parallel.msgs"] = msgs;
    o.layer["parallel.wait_share"] = run + wait > 0 ? wait / (run + wait) : 0;
    o.layer["parallel.event_imbalance"] = ev_min > 0 ? ev_max / ev_min : 0;
    o.layer["parallel.merge_high_water"] = hw;
  }
  return o;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    try {
      if (key == "kind") a->kind = val;
      else if (key == "seed") a->seed = std::stoull(val);
      else if (key == "duration") a->duration = std::stod(val);
      else if (key == "threads") a->threads = static_cast<unsigned>(std::stoul(val));
      else if (key == "clients") a->clients = std::stoi(val);
      else if (key == "lp") a->lp = std::stoi(val);
      else if (key == "meanfield-base") a->meanfield_base = std::stoi(val);
      else if (key == "trace-sink") a->trace_sink = val == "1";
      else if (key == "layers") a->layers = val == "1";
      else if (key == "work-dir") a->work_dir = val;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return (a->kind == "single" || a->kind == "campaign") &&
         !a->work_dir.empty() && a->threads >= 1 && a->lp >= 1 &&
         a->clients >= 1 && a->duration > 0.0;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string build_info() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"compiler\": " + quote(compiler) +
         ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::cerr << "perfbench_rep: bad arguments (see the header of bench.cpp)\n";
    return 2;
  }
  if (kSanitized || !kOptimized) {
    std::cerr << "perfbench_rep: refusing to time an unoptimized or "
                 "sanitizer build (" PERFBENCH_BUILD_TYPE ")\n";
    return 3;
  }
  Spans spans;
  Outcome o;
  try {
    o = a.kind == "campaign" ? run_paper_campaign(a, spans)
                             : run_single(a, spans);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_rep: " << e.what() << "\n";
    return 1;
  }
  if (a.layers) o.counts.derive(&o.layer, o.sim_wall_s);

  std::ostringstream out;
  out << "{\"build\": " << build_info() << ", \"params\": " << object(o.params)
      << ", \"wall_s\": " << num(o.wall_s) << ", \"setup_s\": "
      << num(o.setup_s) << ", \"attempted\": " << o.checks.attempted
      << ", \"failed\": " << o.checks.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < o.checks.failures.size(); ++i) {
    out << (i ? ", " : "") << quote(o.checks.failures[i]);
  }
  out << "], \"counts\": " << object(o.counts.v)
      << ", \"layer\": " << object(o.layer) << ", \"spans\": [";
  const auto& all = spans.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ", " : "") << "{\"name\": " << quote(s.name)
        << ", \"start_s\": " << num(s.t0) << ", \"end_s\": " << num(s.t1)
        << ", \"parent\": " << s.parent
        << ", \"synth\": " << (s.synth ? "true" : "false") << "}";
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}

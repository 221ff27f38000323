#include "src/obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "src/obs/number_format.hpp"

namespace burst {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
}

constexpr double kMicrosPerSec = 1e6;

// Exports flush their text buffer to the stream at this size.
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

// Walks one sink's held records (emission order, as chunk runs) in stable
// key order without copying them: the key is time, or (time, tie) for the
// multi-LP merge. A record that keeps up with the running key maximum is
// read in place; one that falls behind it (a lazily-closed aggregate,
// emitted after later records) is copied aside up front, and the stably
// sorted asides are merged back by (key, emission index). That total order
// is exactly what std::stable_sort on the emission order produces.
class OrderedWalk {
 public:
  OrderedWalk(std::vector<std::span<const TraceRecord>> runs, bool by_tie)
      : runs_(std::move(runs)), by_tie_(by_tie) {
    const TraceRecord* top = nullptr;
    std::uint64_t index = 0;
    for (const std::span<const TraceRecord> run : runs_) {
      for (const TraceRecord& r : run) {
        if (top != nullptr && less(r, *top)) {
          aside_.push_back({index, r});
        } else {
          top = &r;
        }
        ++index;
      }
    }
    std::stable_sort(aside_.begin(), aside_.end(),
                     [this](const Aside& a, const Aside& b) {
                       return less(a.rec, b.rec);
                     });
    enter_run(0);
    settle();
  }

  bool done() const {
    return main_ == nullptr && next_aside_ == aside_.size();
  }

  const TraceRecord& front() const {
    return take_aside() ? aside_[next_aside_].rec : *main_;
  }

  void pop() {
    if (take_aside()) {
      ++next_aside_;
      return;
    }
    top_ = main_;
    step();
    settle();
  }

  /// The walks' shared key order (time, then tie for the merge).
  bool less(const TraceRecord& a, const TraceRecord& b) const {
    if (a.time != b.time) return a.time < b.time;
    return by_tie_ && a.tie < b.tie;
  }

 private:
  struct Aside {
    std::uint64_t index;  // emission index: breaks key ties stably
    TraceRecord rec;
  };

  bool take_aside() const {
    if (next_aside_ == aside_.size()) return false;
    if (main_ == nullptr) return true;
    const Aside& a = aside_[next_aside_];
    if (less(a.rec, *main_)) return true;
    return !less(*main_, a.rec) && a.index < main_index_;
  }

  void enter_run(std::size_t run) {  // held() yields no empty runs
    run_ = run;
    if (run_ == runs_.size()) {
      main_ = nullptr;
      return;
    }
    main_ = runs_[run_].data();
    run_end_ = main_ + runs_[run_].size();
  }

  void step() {
    ++main_index_;
    if (++main_ == run_end_) enter_run(run_ + 1);
  }

  // Skips the in-place records that were set aside: the same test against
  // the same running maximum as the constructor's pass.
  void settle() {
    while (main_ != nullptr && top_ != nullptr && less(*main_, *top_)) step();
  }

  std::vector<std::span<const TraceRecord>> runs_;
  bool by_tie_;
  std::vector<Aside> aside_;
  std::size_t next_aside_ = 0;
  std::size_t run_ = 0;
  const TraceRecord* main_ = nullptr;  // next in-place record, or null
  const TraceRecord* run_end_ = nullptr;
  std::uint64_t main_index_ = 0;
  const TraceRecord* top_ = nullptr;  // last in-place record taken
};

}  // namespace

std::string_view to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kSourceEmit: return "source_emit";
    case TraceEventType::kQueueEnqueue: return "queue_enqueue";
    case TraceEventType::kQueueDequeue: return "queue_dequeue";
    case TraceEventType::kQueueDrop: return "queue_drop";
    case TraceEventType::kLinkDeliver: return "link_deliver";
    case TraceEventType::kSinkAck: return "sink_ack";
    case TraceEventType::kCwndChange: return "cwnd_change";
    case TraceEventType::kSsthreshChange: return "ssthresh_change";
    case TraceEventType::kCcStateChange: return "cc_state_change";
    case TraceEventType::kFastRetransmit: return "fast_retransmit";
    case TraceEventType::kRto: return "rto";
    case TraceEventType::kVegasDiff: return "vegas_diff";
    case TraceEventType::kCongestionEvent: return "congestion_event";
  }
  return "unknown";
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      chunk_records_(std::min(kChunkRecords, capacity_)) {
  // Site 0 is the catch-all for records emitted before any registration.
  sites_.emplace_back("unknown");
}

std::uint8_t TraceSink::register_site(std::string_view name) {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == name) return static_cast<std::uint8_t>(i);
  }
  assert(sites_.size() < 256 && "TraceRecord::site is a uint8 index");
  sites_.emplace_back(name);
  return static_cast<std::uint8_t>(sites_.size() - 1);
}

std::uint16_t TraceSink::intern_state(std::string_view name) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == name) return static_cast<std::uint16_t>(i);
  }
  states_.emplace_back(name);
  return static_cast<std::uint16_t>(states_.size() - 1);
}

void TraceSink::next_chunk() {
  // Called at a chunk boundary: the next write position starts a chunk,
  // allocated the first time the ring reaches it (never past the cap).
  const auto pos = static_cast<std::size_t>(emitted_ % capacity_);
  const std::size_t c = pos / chunk_records_;
  if (c == chunks_.size()) {
    chunks_.emplace_back(std::min(chunk_records_, capacity_ - pos));
  }
  cursor_ = chunks_[c].data();
  chunk_end_ = cursor_ + chunks_[c].size();
}

std::size_t TraceSink::reserved_bytes() const {
  std::size_t records = 0;
  for (const std::vector<TraceRecord>& c : chunks_) records += c.size();
  return records * sizeof(TraceRecord);
}

void TraceSink::clear() {
  chunks_ = {};
  cursor_ = chunk_end_ = nullptr;
  emitted_ = 0;
}

std::vector<std::span<const TraceRecord>> TraceSink::held() const {
  // Ring positions [from, to) split at chunk boundaries.
  std::vector<std::span<const TraceRecord>> runs;
  const auto add = [&](std::size_t from, std::size_t to) {
    while (from < to) {
      const std::vector<TraceRecord>& c = chunks_[from / chunk_records_];
      const std::size_t off = from % chunk_records_;
      const std::size_t n = std::min(c.size() - off, to - from);
      runs.emplace_back(c.data() + off, n);
      from += n;
    }
  };
  if (emitted_ > capacity_) {
    // Wrapped: the oldest surviving record sits at the next write position.
    const auto head = static_cast<std::size_t>(emitted_ % capacity_);
    add(head, capacity_);
    add(0, head);
  } else {
    add(0, static_cast<std::size_t>(emitted_));
  }
  return runs;
}

std::vector<TraceRecord> TraceSink::ordered() const {
  std::vector<TraceRecord> out;
  out.reserve(size());
  for (OrderedWalk w(held(), /*by_tie=*/false); !w.done(); w.pop()) {
    out.push_back(w.front());
  }
  return out;
}

void TraceSink::merge_from(const std::vector<const TraceSink*>& parts) {
  // Remap every part's site/state ids by name. Processing parts in LP
  // order keeps this sink's registries equal to the sequential run's when
  // LP 0 interns everything (the dumbbell split), and deterministic
  // regardless.
  std::vector<std::vector<std::uint8_t>> site_maps;
  std::vector<std::vector<std::uint16_t>> state_maps;
  std::vector<OrderedWalk> walks;
  walks.reserve(parts.size());
  for (const TraceSink* p : parts) {
    std::vector<std::uint8_t>& sites = site_maps.emplace_back();
    for (const std::string& name : p->sites_) {
      sites.push_back(register_site(name));
    }
    std::vector<std::uint16_t>& states = state_maps.emplace_back();
    for (const std::string& name : p->states_) {
      states.push_back(intern_state(name));
    }
    walks.emplace_back(p->held(), /*by_tie=*/true);
  }
  // The scheduler key: execution time, then the executing event's
  // tie-break instant (replayed across LPs by schedule_at_as_of). Each
  // walk yields its part in stable key order; taking the lowest part on
  // equal keys makes the result a stable sort of the LP-concatenated
  // input, so within-LP emission order breaks any residual tie exactly as
  // the per-LP schedulers did.
  for (;;) {
    std::size_t k = walks.size();
    for (std::size_t i = 0; i < walks.size(); ++i) {
      if (walks[i].done()) continue;
      if (k == walks.size() ||
          walks[i].less(walks[i].front(), walks[k].front())) {
        k = i;
      }
    }
    if (k == walks.size()) break;
    const TraceRecord& r = walks[k].front();
    // Already stamped by the originating sink; bypass the stamping emit.
    TraceRecord& m = next_slot();
    m = r;
    m.site = r.site < site_maps[k].size() ? site_maps[k][r.site] : 0;
    if (m.type == TraceEventType::kCcStateChange &&
        r.detail < state_maps[k].size()) {
      m.detail = state_maps[k][r.detail];
    }
    walks[k].pop();
  }
}

bool TraceSink::write_jsonl(std::ostream& os) const {
  std::string out;
  for (OrderedWalk w(held(), /*by_tie=*/false); !w.done(); w.pop()) {
    const TraceRecord& r = w.front();
    out += "{\"t\":";
    append_double(out, r.time);
    out += ",\"type\":\"";
    out += to_string(r.type);
    out += "\",\"site\":\"";
    append_escaped(out, sites_[r.site < sites_.size() ? r.site : 0]);
    out += "\",\"flow\":";
    append_i64(out, r.flow);
    out += ",\"seq\":";
    append_i64(out, r.seq);
    out += ",\"value\":";
    append_double(out, r.value);
    out += ",\"aux\":";
    append_double(out, r.aux);
    out += ",\"detail\":";
    append_i64(out, r.detail);
    if (r.type == TraceEventType::kCcStateChange &&
        r.detail < states_.size()) {
      out += ",\"state\":\"";
      append_escaped(out, states_[r.detail]);
      out += '"';
    }
    out += "}\n";
    if (out.size() >= kFlushBytes) {
      os << out;
      out.clear();
    }
  }
  os << out;
  return static_cast<bool>(os);
}

bool TraceSink::write_chrome_trace(std::ostream& os) const {
  const std::vector<std::span<const TraceRecord>> runs = held();

  // Flow tracks get their own pid so Perfetto groups each flow's counter
  // and instant tracks together; network sites share pid 1.
  constexpr int kNetPid = 1;
  constexpr int kFlowPidBase = 1000;
  std::vector<bool> flow_seen;
  for (const std::span<const TraceRecord> run : runs) {
    for (const TraceRecord& r : run) {
      if (r.flow < 0) continue;
      if (static_cast<std::size_t>(r.flow) >= flow_seen.size()) {
        flow_seen.resize(static_cast<std::size_t>(r.flow) + 1, false);
      }
      flow_seen[static_cast<std::size_t>(r.flow)] = true;
    }
  }

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto meta = [&](const char* kind, int pid, int tid, std::string_view name) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += kind;
    out += "\",\"ph\":\"M\",\"pid\":";
    append_i64(out, pid);
    out += ",\"tid\":";
    append_i64(out, tid);
    out += ",\"args\":{\"name\":\"";
    append_escaped(out, name);
    out += "\"}}";
  };
  meta("process_name", kNetPid, 0, "network");
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    meta("thread_name", kNetPid, static_cast<int>(i), sites_[i]);
  }
  for (std::size_t f = 0; f < flow_seen.size(); ++f) {
    if (!flow_seen[f]) continue;
    meta("process_name", kFlowPidBase + static_cast<int>(f), 0,
         "flow " + std::to_string(f));
    meta("thread_name", kFlowPidBase + static_cast<int>(f), 0, "events");
  }

  auto header = [&](std::string_view name, char ph, int pid, int tid,
                    Time t) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, name);
    out += "\",\"ph\":\"";
    out.push_back(ph);
    out += "\",\"ts\":";
    append_double(out, t * kMicrosPerSec);
    out += ",\"pid\":";
    append_i64(out, pid);
    out += ",\"tid\":";
    append_i64(out, tid);
  };
  auto counter1 = [&](std::string_view name, int pid, Time t,
                      std::string_view series, double v) {
    header(name, 'C', pid, 0, t);
    out += ",\"args\":{\"";
    append_escaped(out, series);
    out += "\":";
    append_double(out, v);
    out += "}}";
  };
  auto instant_begin = [&](std::string_view name, int pid, int tid, Time t) {
    header(name, 'i', pid, tid, t);
    out += ",\"s\":\"t\",\"args\":{";
  };

  for (OrderedWalk w(runs, /*by_tie=*/false); !w.done(); w.pop()) {
    const TraceRecord& r = w.front();
    const int site_tid = r.site < sites_.size() ? r.site : 0;
    const std::string& site = sites_[static_cast<std::size_t>(site_tid)];
    const int flow_pid = kFlowPidBase + (r.flow >= 0 ? r.flow : 0);
    switch (r.type) {
      case TraceEventType::kQueueEnqueue:
      case TraceEventType::kQueueDequeue:
        counter1("qlen " + site, kNetPid, r.time, "packets", r.value);
        break;
      case TraceEventType::kQueueDrop:
        instant_begin("drop", kNetPid, site_tid, r.time);
        out += "\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += ",\"qlen\":";
        append_double(out, r.value);
        out += ",\"reason\":\"";
        out += (r.detail >> 1) == 1   ? "early"
               : (r.detail >> 1) == 2 ? "displaced"
                                      : "forced";
        out += "\"}}";
        break;
      case TraceEventType::kLinkDeliver:
        instant_begin("deliver", kNetPid, site_tid, r.time);
        out += "\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSourceEmit:
        instant_begin("app_emit", flow_pid, 0, r.time);
        out += "\"n\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSinkAck:
        instant_begin("ack", flow_pid, 0, r.time);
        out += "\"ack\":";
        append_i64(out, r.seq);
        out += ",\"ooo\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCwndChange:
        counter1("cwnd", flow_pid, r.time, "cwnd", r.value);
        break;
      case TraceEventType::kSsthreshChange:
        counter1("ssthresh", flow_pid, r.time, "ssthresh", r.value);
        break;
      case TraceEventType::kVegasDiff:
        counter1("vegas_diff", flow_pid, r.time, "diff", r.value);
        break;
      case TraceEventType::kCcStateChange: {
        std::string name = "state: ";
        name += r.detail < states_.size() ? states_[r.detail] : "?";
        instant_begin(name, flow_pid, 0, r.time);
        out += "\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      }
      case TraceEventType::kFastRetransmit:
      case TraceEventType::kRto:
        instant_begin(r.type == TraceEventType::kRto ? "rto"
                                                     : "fast_retransmit",
                      flow_pid, 0, r.time);
        out += "\"seq\":";
        append_i64(out, r.seq);
        out += ",\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCongestionEvent:
        instant_begin("congestion_event", kNetPid, site_tid, r.time);
        out += "\"flows_hit\":";
        append_double(out, r.value);
        out += ",\"duration\":";
        append_double(out, r.aux);
        out += ",\"drops\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
    }
    if (out.size() >= kFlushBytes) {
      os << out;
      out.clear();
    }
  }
  out += "\n]}\n";
  os << out;
  return static_cast<bool>(os);
}

}  // namespace burst

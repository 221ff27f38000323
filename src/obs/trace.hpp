// Structured event tracing: a per-simulation TraceSink that components
// feed typed records into through raw-pointer taps.
//
// Design constraints (DESIGN.md "Observability"):
//  * Zero cost when off. Every tap is a single null-pointer check on a
//    member the component already has in cache; no virtual dispatch, no
//    std::function, no allocation on the untraced path. The bit-identity
//    pins (tests/result_identity_test.cpp) and the packet-path CI gate
//    hold with tracing wired in because the disabled branch is one
//    predictable compare.
//  * No feedback into the simulation. Emitting a record never schedules
//    an event, never consumes RNG, never mutates component state — a
//    traced run's ExperimentResult is bit-identical to an untraced one
//    (tests/obs_trace_test.cpp proves it differentially).
//  * Bounded memory that costs what it records. Records land in a ring
//    capped at capacity() records but stored in fixed-size chunks
//    allocated on demand, so a sink holds memory for the records it has,
//    not for its cap. Once a run reaches the cap the oldest records are
//    overwritten and counted; a held record is never moved.
//
// Exports: JSONL (one record per line, greppable) and Chrome trace-event
// JSON (the `{"traceEvents": [...]}` dialect Perfetto and chrome://tracing
// load), with one track per network site and one per flow, counter tracks
// for cwnd/ssthresh and instants for drops/retransmits/state changes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.hpp"

namespace burst {

enum class TraceEventType : std::uint8_t {
  kSourceEmit = 0,   // application handed a packet to the transport
  kQueueEnqueue,     // queue accepted a packet (value = occupancy after)
  kQueueDequeue,     // transmitter pulled a packet (value = occupancy after)
  kQueueDrop,        // queue rejected/displaced a packet (value = occupancy)
  kLinkDeliver,      // packet reached the far end of a link (value = bytes)
  kSinkAck,          // receiver emitted an ACK (seq = cumulative ack)
  kCwndChange,       // value = new cwnd, aux = ssthresh
  kSsthreshChange,   // value = new ssthresh, aux = cwnd
  kCcStateChange,    // detail = state string id, value = cwnd
  kFastRetransmit,   // seq = hole retransmitted, value = cwnd after
  kRto,              // retransmission timeout fired, value = cwnd after
  kVegasDiff,        // per-RTT decision: value = diff, aux = cwnd after
  kCongestionEvent,  // FlowMonitor drop cluster closed: value = flows hit,
                     // aux = event duration, seq = drops in event
};

/// Stable lowercase token for exports ("queue_drop", "cwnd_change", ...).
std::string_view to_string(TraceEventType t);

/// One trace record: a compact POD (56 bytes) so a multi-million-event
/// run rings through cheaply. Field meaning depends on `type` (see the
/// enum); `site` indexes TraceSink's site registry, `detail` is a small
/// type-specific discriminant (packet kind, drop reason, state id).
/// `tie` and `lp` are stamped by the sink itself (see TraceSink::emit):
/// they never appear in exports, they exist so per-LP rings merge back
/// into the sequential emission order (DESIGN.md §14).
struct TraceRecord {
  Time time = 0.0;
  double value = 0.0;
  double aux = 0.0;
  Time tie = 0.0;  // executing event's scheduler tie-break instant
  std::int64_t seq = -1;
  std::int32_t flow = -1;
  TraceEventType type = TraceEventType::kSourceEmit;
  std::uint8_t site = 0;
  std::uint16_t detail = 0;
  std::uint8_t lp = 0;  // logical process that emitted the record
};

/// `detail` bit layout for packet-lifecycle records (queue/link/source):
/// bit 0 = packet kind (0 data, 1 ack); bits 1-2 = drop reason for
/// kQueueDrop (0 forced, 1 early/RED, 2 displaced).
inline constexpr std::uint16_t kTraceDetailAck = 1;
inline constexpr std::uint16_t kTraceDropForced = 0 << 1;
inline constexpr std::uint16_t kTraceDropEarly = 1 << 1;
inline constexpr std::uint16_t kTraceDropDisplaced = 2 << 1;

class TraceSink {
 public:
  /// Records per storage chunk (2^15 x 56 B, about 1.8 MB). A sink whose
  /// cap is smaller stores everything in one chunk of exactly the cap.
  static constexpr std::size_t kChunkRecords = std::size_t{1} << 15;

  /// @p capacity caps the ring (records, not bytes). The default holds a
  /// full paper-scale run (N=60, 20 s is ~2-3 M packet-lifecycle records);
  /// memory is only allocated as records arrive (reserved_bytes()).
  explicit TraceSink(std::size_t capacity = std::size_t{1} << 22);

  // Taps hold raw pointers to the sink and emit() writes through a cursor
  // into the chunks: the sink stays where it was built.
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Registers (or finds) a named emission site — "queue:gateway",
  /// "link:bottleneck" — and returns its id for TraceRecord::site.
  std::uint8_t register_site(std::string_view name);

  /// Interns a congestion-control state name ("slow-start", "vegas-ca")
  /// and returns its id for TraceRecord::detail on kCcStateChange.
  std::uint16_t intern_state(std::string_view name);

  /// Binds the stamp every emitted record carries: @p tie_clock is the
  /// owning Simulator's executing-event tie-break instant (stable address,
  /// see Simulator::tie_clock) and @p lp the logical process this sink
  /// records for. Unset, records are stamped tie = their own time and
  /// lp = 0, which is exact for a single-LP run.
  void set_stamp(const Time* tie_clock, std::uint8_t lp) {
    tie_clock_ = tie_clock;
    lp_ = lp;
  }

  std::uint8_t lp() const { return lp_; }

  /// Appends a record; overwrites the oldest when the ring is full.
  void emit(const TraceRecord& r) {
    TraceRecord& slot = next_slot();
    slot = r;
    slot.tie = tie_clock_ != nullptr ? *tie_clock_ : r.time;
    slot.lp = lp_;
  }

  /// Appends a lazily-closed aggregate (a record emitted AFTER its logical
  /// timestamp, like FlowMonitor's congestion events). Stamped with
  /// tie = kTimeNever so merge_from() sorts it after every same-instant
  /// live record — exactly where the sequential engine's late emission
  /// plus stable time sort lands it.
  void emit_aggregate(const TraceRecord& r) {
    TraceRecord& slot = next_slot();
    slot = r;
    slot.tie = kTimeNever;
    slot.lp = lp_;
  }

  /// Records ever emitted (including any overwritten ones).
  std::uint64_t emitted() const { return emitted_; }
  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const {
    return emitted_ > capacity_ ? emitted_ - capacity_ : 0;
  }
  /// Records currently held.
  std::size_t size() const {
    return emitted_ < capacity_ ? static_cast<std::size_t>(emitted_)
                                : capacity_;
  }
  /// Ring cap in records (the constructor's @p capacity).
  std::size_t capacity() const { return capacity_; }
  /// Bytes of record storage actually allocated: whole chunks covering the
  /// records held so far, never more than capacity() records' worth.
  std::size_t reserved_bytes() const;

  /// Forgets every record and frees their storage; the site and state
  /// registries and the stamp stay. The sink then records afresh.
  void clear();

  const std::vector<std::string>& sites() const { return sites_; }
  const std::vector<std::string>& states() const { return states_; }

  /// The held records in nondecreasing time order, equal to a stable sort
  /// of the emission order by time. Components emit in event-execution
  /// order, which is already time order except for lazily-closed
  /// aggregates (FlowMonitor's congestion events), so only those are
  /// sorted; the exports walk the same order in place, without this copy.
  std::vector<TraceRecord> ordered() const;

  /// Deterministic multi-LP merge: appends every part's held records into
  /// this sink in (time, tie) order — the same scheduler-key discipline
  /// the parallel runtime's merge_inbound uses — remapping site and
  /// CC-state ids by NAME into this sink's registries (each part interns
  /// independently). Within an LP, same-instant emissions already pop in
  /// nondecreasing tie order, and cross-LP deliveries replay the
  /// producer's tie (Simulator::schedule_at_as_of), so the merged order
  /// reproduces the sequential engine's emission order and the exports
  /// are byte-identical to a 1-LP run (tests/trace_merge_test.cpp).
  /// Records stream from the parts' chunks straight into this ring (no
  /// intermediate copy); past this sink's cap the oldest are overwritten
  /// and counted in dropped(). Call once, on a sink that has not recorded;
  /// parts stay untouched.
  void merge_from(const std::vector<const TraceSink*>& parts);

  /// One JSON object per line; schema in scripts/trace_event.schema.json.
  bool write_jsonl(std::ostream& os) const;

  /// Chrome trace-event JSON ("ph":"i" instants, "ph":"C" counters, ts in
  /// microseconds) loadable by Perfetto / chrome://tracing.
  bool write_chrome_trace(std::ostream& os) const;

 private:
  /// The slot the next record goes to, counted as emitted. Crossing into
  /// the next chunk (or wrapping at the cap) is the out-of-line slow path.
  TraceRecord& next_slot() {
    if (cursor_ == chunk_end_) next_chunk();
    ++emitted_;
    return *cursor_++;
  }
  void next_chunk();

  /// The held records in emission order, as contiguous runs of chunk
  /// storage (oldest first).
  std::vector<std::span<const TraceRecord>> held() const;

  std::size_t capacity_;
  std::size_t chunk_records_;  // min(kChunkRecords, capacity_)
  // Ring position p lives at chunks_[p / chunk_records_][p % chunk_records_];
  // every chunk is full-size except possibly the last one at the cap.
  std::vector<std::vector<TraceRecord>> chunks_;
  TraceRecord* cursor_ = nullptr;     // next write
  TraceRecord* chunk_end_ = nullptr;  // end of cursor_'s chunk
  std::uint64_t emitted_ = 0;
  const Time* tie_clock_ = nullptr;
  std::uint8_t lp_ = 0;
  std::vector<std::string> sites_;
  std::vector<std::string> states_;
};

}  // namespace burst

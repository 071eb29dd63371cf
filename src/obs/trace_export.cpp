#include "obs/trace_export.hpp"

#include <array>
#include <cstddef>

#include "store/json.hpp"

namespace araxl::obs {

namespace {

using store::JsonWriter;

void append_metadata(std::string& out, std::uint64_t pid, std::uint64_t tid,
                     std::string_view what, std::string_view name) {
  JsonWriter w(out);
  w.open();
  w.key("name").str(what);
  w.key("ph").str("M");
  w.key("pid").u64(pid);
  w.key("tid").u64(tid);
  w.key("args").open().key("name").str(name).close();
  w.close();
}

std::string marker_name(const SimMarker& m) {
  switch (m.kind) {
    case SimMarkerKind::kWakeup:
      return "wakeup";
    case SimMarkerKind::kBatchEngage:
      return "batch_engage";
    case SimMarkerKind::kBatchClamp:
      return "batch_clamp";
    case SimMarkerKind::kBatchWarmup:
      return "batch_warmup";
    case SimMarkerKind::kBatchReject:
      return "batch_reject(" +
             std::string(batch_reject_name(
                 static_cast<BatchReject>(m.arg < kNumBatchRejects ? m.arg
                                                                   : 0))) +
             ")";
  }
  return "marker";
}

std::string_view marker_arg_key(SimMarkerKind kind) {
  switch (kind) {
    case SimMarkerKind::kWakeup:
      return "occupancy";
    case SimMarkerKind::kBatchEngage:
    case SimMarkerKind::kBatchClamp:
    case SimMarkerKind::kBatchWarmup:
      return "iterations";
    case SimMarkerKind::kBatchReject:
      return "reason";
  }
  return "arg";
}

}  // namespace

std::string export_chrome_trace(const std::vector<TraceExportJob>& jobs) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const TraceExportJob& job = jobs[j];
    std::string ev;
    append_metadata(ev, j, 0, "process_name", job.name);
    emit(ev);
    if (job.trace == nullptr) continue;

    // Thread rows: tid 0 is the engine (markers), tids 1.. are the units.
    // Only name threads that actually carry events, so an idle unit does
    // not clutter the timeline.
    std::array<bool, kNumUnits> unit_used{};
    for (const TraceRecord& rec : job.trace->records()) {
      const auto u = static_cast<std::size_t>(rec.unit);
      if (u < kNumUnits) unit_used[u] = true;
    }
    if (!job.trace->markers().empty()) {
      ev.clear();
      append_metadata(ev, j, 0, "thread_name", "engine");
      emit(ev);
    }
    for (std::size_t u = 1; u < kNumUnits; ++u) {
      if (!unit_used[u]) continue;
      ev.clear();
      append_metadata(ev, j, u, "thread_name",
                      unit_name(static_cast<Unit>(u)));
      emit(ev);
    }

    for (const TraceRecord& rec : job.trace->records()) {
      const Cycle dur =
          rec.completed > rec.dispatched ? rec.completed - rec.dispatched : 0;
      ev.clear();
      JsonWriter w(ev);
      w.open();
      w.key("name").str(rec.text);
      w.key("cat").str("instr");
      w.key("ph").str("X");
      w.key("ts").u64(rec.dispatched);
      w.key("dur").u64(dur);
      w.key("pid").u64(j);
      w.key("tid").u64(static_cast<std::uint64_t>(rec.unit));
      w.key("args").open();
      w.key("id").u64(rec.id);
      w.key("vl").u64(rec.vl);
      w.key("issued").u64(rec.issued);
      w.key("first_result").u64(rec.first_result);
      // Dominant stall annotation: only present when the attributor charged
      // byte-slots to this instruction, so non-FPU spans stay unchanged.
      if (rec.stall_reason < kNumStallReasons) {
        w.key("stall").str(
            stall_reason_name(static_cast<StallReason>(rec.stall_reason)));
        w.key("stall_slots").u64(rec.stall_slots);
      }
      w.close();
      w.close();
      emit(ev);
    }

    for (const SimMarker& m : job.trace->markers()) {
      ev.clear();
      JsonWriter w(ev);
      w.open();
      w.key("name").str(marker_name(m));
      w.key("cat").str("engine");
      w.key("ph").str("i");
      w.key("s").str("t");
      w.key("ts").u64(m.cycle);
      w.key("pid").u64(j);
      w.key("tid").u64(0);
      w.key("args").open().key(marker_arg_key(m.kind)).u64(m.arg).close();
      w.close();
      emit(ev);
    }
  }

  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace araxl::obs

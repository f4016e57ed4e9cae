#include "runtime/metrics.hpp"

#include <cstdio>
#include <sstream>

namespace systolize {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

double RunMetrics::utilization() const {
  if (computation_processes == 0 || makespan == 0) return 0.0;
  return static_cast<double>(statements) /
         (static_cast<double>(computation_processes) *
          static_cast<double>(makespan));
}

std::string RunMetrics::to_string() const {
  std::ostringstream os;
  os << "makespan=" << makespan << " transfers=" << total_transfers
     << " statements=" << statements << " processes=" << process_count
     << " (comp=" << computation_processes << " io=" << io_processes
     << " buf=" << buffer_processes << ") channels=" << channel_count
     << " utilization=" << static_cast<int>(utilization() * 100.0) << '%';
  if (faults_injected > 0) {
    os << " rounds=" << scheduler_rounds << " faults=" << faults_injected;
  }
  if (plan_reused) {
    os << " plan=cached";
  } else if (template_reused) {
    os << " plan=expanded(" << plan_expand_ns << "ns)";
  }
  if (plan_cache_evictions > 0) {
    os << " cache_evictions=" << plan_cache_evictions;
  }
  if (backend != "interp") {
    os << " backend=" << backend << " insns=" << bytecode_instructions;
    if (bytecode_reused) {
      os << " program=cached";
    } else if (bytecode_lower_ns > 0) {
      os << " program=lowered(" << bytecode_lower_ns << "ns)";
    }
    if (schedule == "replayed") os << " schedule=replayed";
  }
  if (!fallback_reason.empty()) {
    os << " backend=interp fallback=\"" << fallback_reason << '"';
  }
  if (batch > 1) os << " batch=" << batch;
  return os.str();
}

std::string RunMetrics::to_json() const {
  std::ostringstream os;
  os << "{\"makespan\":" << makespan
     << ",\"total_transfers\":" << total_transfers
     << ",\"statements\":" << statements
     << ",\"process_count\":" << process_count
     << ",\"channel_count\":" << channel_count
     << ",\"computation_processes\":" << computation_processes
     << ",\"io_processes\":" << io_processes
     << ",\"buffer_processes\":" << buffer_processes
     << ",\"physical_processors\":" << physical_processors
     << ",\"scheduler_rounds\":" << scheduler_rounds
     << ",\"faults_injected\":" << faults_injected
     << ",\"plan_reused\":" << (plan_reused ? "true" : "false")
     << ",\"template_reused\":" << (template_reused ? "true" : "false")
     << ",\"plan_expand_ns\":" << plan_expand_ns
     << ",\"plan_cache_bytes\":" << plan_cache_bytes
     << ",\"plan_cache_evictions\":" << plan_cache_evictions
     << ",\"backend\":\"" << json_escape(backend) << '"'
     << ",\"fallback_reason\":\"" << json_escape(fallback_reason) << '"'
     << ",\"batch\":" << batch
     << ",\"bytecode_reused\":" << (bytecode_reused ? "true" : "false")
     << ",\"bytecode_lower_ns\":" << bytecode_lower_ns
     << ",\"bytecode_instructions\":" << bytecode_instructions
     << ",\"schedule\":\"" << json_escape(schedule) << '"'
     << ",\"transfers_per_stream\":{";
  bool first = true;
  for (const auto& [stream, count] : transfers_per_stream) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(stream) << "\":" << count;
  }
  os << "}}";
  return os.str();
}

std::string DeadlockReport::to_string() const {
  std::ostringstream os;
  os << reason << ": " << blocked.size() << " blocked op(s)";
  if (!cycle.empty()) {
    os << "; blocking cycle:";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      os << ' ' << cycle[i] << " -[" << cycle_channels[i] << "]->";
    }
    os << ' ' << cycle.front();
  }
  if (tape_position >= 0) {
    os << "; replay stopped at tape entry " << tape_position << " of "
       << tape_entries;
  }
  constexpr std::size_t kMaxShown = 12;
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    if (i == kMaxShown) {
      os << "\n  ... " << (blocked.size() - kMaxShown) << " more";
      break;
    }
    const BlockedOpState& b = blocked[i];
    os << "\n  " << b.process << ": " << b.op;
    if (!b.channel.empty()) os << ' ' << b.channel;
    os << " (t=" << b.time << ", stmts=" << b.statements << ')';
  }
  return os.str();
}

std::string DeadlockReport::to_json() const {
  std::ostringstream os;
  os << "{\"reason\":\"" << json_escape(reason) << "\",\"blocked\":[";
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    const BlockedOpState& b = blocked[i];
    if (i != 0) os << ',';
    os << "{\"process\":\"" << json_escape(b.process) << "\",\"channel\":\""
       << json_escape(b.channel) << "\",\"op\":\"" << json_escape(b.op)
       << "\",\"time\":" << b.time << ",\"statements\":" << b.statements
       << '}';
  }
  os << "],\"cycle\":[";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << json_escape(cycle[i]) << '"';
  }
  os << "],\"cycle_channels\":[";
  for (std::size_t i = 0; i < cycle_channels.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << json_escape(cycle_channels[i]) << '"';
  }
  os << ']';
  if (tape_position >= 0) {
    os << ",\"tape_position\":" << tape_position
       << ",\"tape_entries\":" << tape_entries;
  }
  os << '}';
  return os.str();
}

}  // namespace systolize

#include "spans.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

namespace mbrcbench {

std::map<std::string, SpanTotals> attribute(
    const mbrc::obs::TraceData& trace) {
  std::map<std::uint32_t, std::vector<const mbrc::obs::TraceEvent*>> by_thread;
  for (const mbrc::obs::TraceEvent& e : trace.events)
    if (e.name.starts_with(kSpanPrefix)) by_thread[e.tid].push_back(&e);

  std::map<std::string, SpanTotals> totals;
  for (auto& [tid, events] : by_thread) {
    // Parents before children: earlier start first, longer first on ties.
    std::sort(events.begin(), events.end(), [](const auto* a, const auto* b) {
      if (a->start_us != b->start_us) return a->start_us < b->start_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<const mbrc::obs::TraceEvent*> open;
    for (const mbrc::obs::TraceEvent* e : events) {
      while (!open.empty() &&
             open.back()->start_us + open.back()->dur_us <= e->start_us)
        open.pop_back();
      const double seconds = 1e-6 * static_cast<double>(e->dur_us);
      if (!open.empty())
        totals[open.back()->name.substr(kSpanPrefix.size())].self_s -= seconds;
      SpanTotals& t = totals[e->name.substr(kSpanPrefix.size())];
      t.self_s += seconds;
      t.total_s += seconds;
      ++t.count;
      open.push_back(e);
    }
  }
  return totals;
}

double self_seconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : std::max(0.0, it->second.self_s);
}

std::string write_trace(const mbrc::obs::TraceData& trace,
                        const std::string& dir, const std::string& file) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  const std::string path = (std::filesystem::path(dir) / file).string();
  std::ofstream os(path);
  if (!os) return {};
  mbrc::obs::write_chrome_trace(os, trace);
  return os.good() ? path : std::string();
}

}  // namespace mbrcbench

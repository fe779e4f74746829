#include "src/trace/conn_trace.hpp"

#include <algorithm>
#include <cmath>

namespace wan::trace {

void ConnTrace::sort_by_start() {
  std::sort(records_.begin(), records_.end(),
            [](const ConnRecord& a, const ConnRecord& b) {
              return a.start < b.start;
            });
}

std::vector<double> ConnTrace::arrival_times(Protocol protocol) const {
  std::vector<double> times;
  for (const ConnRecord& r : records_) {
    if (r.protocol == protocol) times.push_back(r.start);
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<ConnSummaryRow> ConnTrace::summary() const {
  std::map<Protocol, ConnSummaryRow> rows;
  for (const ConnRecord& r : records_) {
    ConnSummaryRow& row = rows[r.protocol];
    row.protocol = r.protocol;
    row.connections += 1;
    row.bytes += r.total_bytes();
  }
  std::vector<ConnSummaryRow> out;
  out.reserve(rows.size());
  for (const auto& [proto, row] : rows) out.push_back(row);
  return out;
}

std::uint64_t ConnTrace::total_bytes() const {
  std::uint64_t total = 0;
  for (const ConnRecord& r : records_) total += r.total_bytes();
  return total;
}

std::vector<double> ConnTrace::hourly_profile(Protocol protocol) const {
  std::vector<double> buckets(24, 0.0);
  double total = 0.0;
  for (const ConnRecord& r : records_) {
    if (r.protocol != protocol) continue;
    const double hour_of_day = std::fmod(r.start / 3600.0, 24.0);
    const auto h = static_cast<std::size_t>(hour_of_day) % 24;
    buckets[h] += 1.0;
    total += 1.0;
  }
  if (total > 0.0) {
    for (double& b : buckets) b /= total;
  }
  return buckets;
}

}  // namespace wan::trace

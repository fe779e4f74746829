// ConnTrace: a SYN/FIN connection trace (Table I style) with the
// filtering and summarization operations Section III needs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/trace/records.hpp"

namespace wan::trace {

/// Per-protocol row of a Table-I style summary.
struct ConnSummaryRow {
  Protocol protocol = Protocol::kOther;
  std::size_t connections = 0;
  std::uint64_t bytes = 0;
};

/// A trace of TCP connections.
class ConnTrace {
 public:
  ConnTrace() = default;
  ConnTrace(std::string name, double t_begin, double t_end)
      : name_(std::move(name)), t_begin_(t_begin), t_end_(t_end) {}

  const std::string& name() const { return name_; }
  double t_begin() const { return t_begin_; }
  double t_end() const { return t_end_; }
  double duration() const { return t_end_ - t_begin_; }

  void add(const ConnRecord& rec) { records_.push_back(rec); }
  void reserve(std::size_t n) { records_.reserve(n); }
  const std::vector<ConnRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Sorts records by start time (analysis code assumes this).
  void sort_by_start();


  /// Start times of all connections of `protocol`, sorted.
  std::vector<double> arrival_times(Protocol protocol) const;

  /// Connection counts / byte totals per protocol, for Table-I rows.
  std::vector<ConnSummaryRow> summary() const;

  /// Total payload bytes over all records.
  std::uint64_t total_bytes() const;

  /// Fraction of this protocol's daily connections starting within each
  /// hour-of-day bucket (Fig. 1). Buckets wrap modulo 24 h.
  std::vector<double> hourly_profile(Protocol protocol) const;

 private:
  std::string name_;
  double t_begin_ = 0.0;
  double t_end_ = 0.0;
  std::vector<ConnRecord> records_;
};

}  // namespace wan::trace

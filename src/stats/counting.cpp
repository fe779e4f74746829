#include "src/stats/counting.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace wan::stats {

std::vector<double> bin_counts(std::span<const double> times, double t0,
                               double t1, double bin) {
  BinCountsAccumulator acc(t0, t1, bin);
  acc.add(times);
  return acc.take();
}

BinCountsAccumulator::BinCountsAccumulator(double t0, double t1, double bin)
    : t0_(t0), t1_(t1), bin_(bin) {
  if (!(bin > 0.0)) throw std::invalid_argument("bin_counts: bin must be > 0");
  if (!(t1 > t0)) throw std::invalid_argument("bin_counts: t1 must be > t0");
  counts_.assign(static_cast<std::size_t>(std::ceil((t1 - t0) / bin)), 0.0);
}

void BinCountsAccumulator::add(double t) {
  if (t < t0_ || t >= t1_) return;
  auto idx = static_cast<std::size_t>((t - t0_) / bin_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // float edge at t1
  counts_[idx] += 1.0;
}

void BinCountsAccumulator::add(std::span<const double> times) {
  // Guard the int32 index scratch; a series this long would need a bin
  // vector beyond 2G entries anyway.
  if (counts_.size() >= static_cast<std::size_t>(INT32_MAX)) {
    for (double t : times) add(t);
    return;
  }
  const double t0 = t0_;
  const double t1 = t1_;
  const double bin = bin_;
  const double last = static_cast<double>(counts_.size() - 1);
  idx_scratch_.resize(times.size());
  std::int32_t* idx = idx_scratch_.data();
  // Phase 1: pure per-element arithmetic over the time column — the
  // same range predicate and division as add(t), so the computed bin of
  // every in-range element is identical (clamping the quotient before
  // truncation equals clamping the index after it, since the quotient
  // of an in-range element is nonnegative and below bins()). All
  // selects, no branches: compare / divide / min / convert / blend,
  // which is what lets the loop vectorize.
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    // Non-short-circuit | so the predicate is two compares and an or,
    // not a branch (short-circuit || blocks vectorization).
    const bool out = (t < t0) | (t >= t1);
    double q = (t - t0) / bin;
    q = q > last ? last : q;  // float edge at t1
    q = q > 0.0 ? q : 0.0;    // keep the conversion defined on out lanes
    const auto b = static_cast<std::int32_t>(q);
    idx[i] = out ? -1 : b;
  }
  // Phase 2: scatter. Inherently serial per element, but now a plain
  // increment loop with no floating-point work left in it.
  double* counts = counts_.data();
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (idx[i] >= 0) counts[idx[i]] += 1.0;
  }
}

SpeculativeBinCounts::SpeculativeBinCounts(double t0, double bin)
    : t0_(t0), bin_(bin) {
  if (!(bin > 0.0)) throw std::invalid_argument("bin_counts: bin must be > 0");
}

void SpeculativeBinCounts::add(std::span<const double> times) {
  if (times.empty()) return;
  // One growth step per chunk: the chunk's max time bounds every index
  // this chunk can produce, so the per-element loops below never have
  // to re-check capacity.
  double mx = times[0];
  for (std::size_t i = 1; i < times.size(); ++i)
    mx = times[i] > mx ? times[i] : mx;
  const double hi_q = (mx - t0_) / bin_;
  if (!(hi_q >= 0.0) || hi_q >= static_cast<double>(INT32_MAX - 1)) {
    // Chunk max before t0 (wildly out of order), NaN, or a grid the
    // fixed accumulator's int32 scratch could not index either. Don't
    // bin (or allocate for) what finish() is going to disown.
    poisoned_ = true;
    return;
  }
  const std::size_t need = static_cast<std::size_t>(hi_q) + 1;
  if (need > size_) {
    while (blocks_.size() * kBlockBins < need)
      blocks_.push_back(std::make_unique<double[]>(kBlockBins));  // zeroed
    size_ = need;
  }

  // The two phases mirror BinCountsAccumulator::add(span) exactly —
  // same quotient, same clamp-then-truncate — so every event at or
  // after t0 lands in the identical bin. Events below t0 poison the
  // speculation instead of being dropped: the 0 they bin into here is
  // never observed, because finish() returns nullopt.
  const double t0 = t0_;
  const double bin = bin_;
  const double last = static_cast<double>(size_ - 1);
  idx_scratch_.resize(times.size());
  std::int32_t* idx = idx_scratch_.data();
  int below = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    below |= static_cast<int>(t < t0);
    double q = (t - t0) / bin;
    q = q > last ? last : q;
    q = q > 0.0 ? q : 0.0;
    idx[i] = static_cast<std::int32_t>(q);
  }
  if (below != 0) poisoned_ = true;
  constexpr unsigned kShift = std::countr_zero(kBlockBins);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto k = static_cast<std::size_t>(idx[i]);
    blocks_[k >> kShift][k & (kBlockBins - 1)] += 1.0;
  }
}

std::optional<std::vector<double>> SpeculativeBinCounts::finish(double t1) {
  if (poisoned_ || !(t1 > t0_)) return std::nullopt;
  // The fixed accumulator covering [t0, t1) has exactly this many bins.
  const std::size_t final_len =
      static_cast<std::size_t>(std::ceil((t1 - t0_) / bin_));
  // Grown past the fixed grid: some event would have been dropped
  // (t >= t1) or edge-clamped into the last bin by the fixed
  // accumulator. The caller feeds only events strictly below t1, so in
  // practice this is the floating-point grid edge — rare enough to
  // just redo exactly.
  if (size_ > final_len) return std::nullopt;
  std::vector<double> counts;
  counts.reserve(final_len);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const double* block = blocks_[b].get();
    counts.insert(counts.end(), block,
                  block + std::min(kBlockBins, size_ - b * kBlockBins));
    blocks_[b].reset();
  }
  counts.resize(final_len, 0.0);  // trailing empty bins
  return counts;
}

std::vector<double> aggregate_mean(std::span<const double> x, std::size_t m) {
  if (m == 0) throw std::invalid_argument("aggregate_mean: m must be >= 1");
  std::vector<double> out;
  out.reserve(x.size() / m);
  for (std::size_t i = 0; i + m <= x.size(); i += m) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += x[i + j];
    out.push_back(s / static_cast<double>(m));
  }
  return out;
}

std::vector<double> aggregate_sum(std::span<const double> x, std::size_t m) {
  if (m == 0) throw std::invalid_argument("aggregate_sum: m must be >= 1");
  std::vector<double> out;
  out.reserve(x.size() / m);
  for (std::size_t i = 0; i + m <= x.size(); i += m) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += x[i + j];
    out.push_back(s);
  }
  return out;
}

double BurstLull::mean_burst_bins() const {
  if (burst_lengths.empty()) return 0.0;
  double s = 0.0;
  for (auto v : burst_lengths) s += static_cast<double>(v);
  return s / static_cast<double>(burst_lengths.size());
}

double BurstLull::mean_lull_bins() const {
  if (lull_lengths.empty()) return 0.0;
  double s = 0.0;
  for (auto v : lull_lengths) s += static_cast<double>(v);
  return s / static_cast<double>(lull_lengths.size());
}

BurstLull burst_lull_structure(std::span<const double> counts) {
  BurstLullAccumulator acc;
  for (double c : counts) acc.push(c);
  return acc.finish();
}

void BurstLullAccumulator::push(double count) {
  const bool occ = count > 0.0;
  if (run_ == 0) {
    occupied_ = occ;
    run_ = 1;
  } else if (occ == occupied_) {
    ++run_;
  } else {
    runs_.push_back({run_, occupied_});
    occupied_ = occ;
    run_ = 1;
  }
}

BurstLull BurstLullAccumulator::finish() const {
  BurstLull out;
  for (const Run& r : runs_)
    (r.occupied ? out.burst_lengths : out.lull_lengths).push_back(r.length);
  if (run_ > 0)
    (occupied_ ? out.burst_lengths : out.lull_lengths).push_back(run_);
  return out;
}

void BurstLullAccumulator::merge(const BurstLullAccumulator& other) {
  if (other.run_ == 0) return;  // other saw nothing
  if (run_ == 0) {              // we saw nothing
    *this = other;
    return;
  }
  // Splice at the boundary: our open run meets other's first run. If
  // occupancy matches they are one run of the concatenated series.
  Run first = other.runs_.empty() ? Run{other.run_, other.occupied_}
                                  : other.runs_.front();
  if (first.occupied == occupied_) {
    first.length += run_;
  } else {
    runs_.push_back({run_, occupied_});
  }
  if (other.runs_.empty()) {
    // first IS other's open run; it stays open here.
    run_ = first.length;
    occupied_ = first.occupied;
    return;
  }
  runs_.push_back(first);
  runs_.insert(runs_.end(), other.runs_.begin() + 1, other.runs_.end());
  run_ = other.run_;
  occupied_ = other.occupied_;
}

}  // namespace wan::stats

// Sliding-window estimation pins (ctest label `window`): SegmentRing
// add/evict parity against the batch AveragedPeriodogram (bitwise),
// bucket-boundary exactness of the windowed accumulator twins and the
// merge algebra their buckets fold with, the Whittle warm-start
// fallback on junk hints (search and refitter paths), and the
// end-to-end WindowedAnalyzer against the from-scratch reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/fft/periodogram.hpp"
#include "src/fft/rolling_periodogram.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/poisson_test.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stats/whittle.hpp"
#include "src/stats/window.hpp"
#include "src/stream/window_analyzer.hpp"

namespace wan {
namespace {

std::vector<double> count_series(std::size_t n, unsigned seed,
                                 double mean = 2.0) {
  std::mt19937 gen(seed);
  std::poisson_distribution<int> pois(mean);
  std::vector<double> x(n);
  for (double& v : x) v = static_cast<double>(pois(gen));
  return x;
}

/// Sorted arrival times on [0, span) with exponential gaps of the given
/// mean — a Poisson stream, which both the windowed tester and the
/// Whittle fit (H ~ 1/2) have known answers for.
std::vector<double> poisson_arrivals(double span, double mean_gap,
                                     unsigned seed) {
  std::mt19937 gen(seed);
  std::exponential_distribution<double> gap(1.0 / mean_gap);
  std::vector<double> times;
  for (double t = gap(gen); t < span; t += gap(gen)) times.push_back(t);
  return times;
}

// --- SegmentRing: add/evict parity with the batch accumulator ----------

TEST(SegmentRing, EvictionMatchesBatchOverTrailingWindowBitwise) {
  constexpr std::size_t kSeg = 32, kCap = 4, kTotal = 11;
  const std::vector<double> x = count_series(kSeg * kTotal, 101);

  fft::SegmentRing ring(kSeg, kCap);
  ring.push_samples(std::span<const double>(x));
  ASSERT_EQ(ring.segments(), kCap);
  ASSERT_EQ(ring.total_segments(), kTotal);
  ASSERT_EQ(ring.pending(), 0u);

  // Batch accumulator over ONLY the last kCap segments, in push order.
  fft::AveragedPeriodogram batch(kSeg);
  for (std::size_t s = kTotal - kCap; s < kTotal; ++s)
    batch.push(std::span<const double>(x).subspan(s * kSeg, kSeg));

  const fft::Periodogram rolled = ring.finish();
  const fft::Periodogram direct = batch.finish();
  ASSERT_EQ(rolled.frequency, direct.frequency);
  EXPECT_EQ(rolled.ordinate, direct.ordinate);  // bitwise, by design

  // The averaged() bridge exposes the same state through the batch
  // type's snapshot.
  const fft::Periodogram bridged = ring.averaged().finish();
  EXPECT_EQ(bridged.ordinate, direct.ordinate);
}

TEST(SegmentRingCascade, LevelsMatchRepeatedPairwiseMeanBitwise) {
  constexpr std::size_t kSeg = 16, kBaseCap = 8, kLevels = 2;
  const std::vector<double> x = count_series(kSeg * kBaseCap * 3, 102);

  fft::SegmentRingCascade cascade(kSeg, kBaseCap, kLevels);
  cascade.push_samples(std::span<const double>(x));

  // Every level's window covers the same trailing base-sample range.
  std::vector<double> window(x.end() - kSeg * kBaseCap, x.end());
  for (std::size_t level = 0; level <= kLevels; ++level) {
    if (level > 0) window = stats::aggregate_mean(window, 2);
    fft::AveragedPeriodogram batch(kSeg);
    for (std::size_t s = 0; s + kSeg <= window.size(); s += kSeg)
      batch.push(std::span<const double>(window).subspan(s, kSeg));
    EXPECT_EQ(cascade.ring(level).finish().ordinate, batch.finish().ordinate)
        << "level " << level;
  }
}

// --- Windowed accumulators: bucket-boundary exactness -------------------

TEST(WindowedBinCounts, AlignedWindowMatchesBatchBinCountsExactly) {
  const std::vector<double> times = poisson_arrivals(100.0, 0.05, 103);
  constexpr double kBin = 0.5;
  constexpr std::size_t kWindowBins = 40;  // 20 s window

  stats::WindowedBinCounts win(0.0, kBin, kWindowBins);
  win.add(std::span<const double>(times));
  win.advance_to(100.25);  // completes bins through [.., 100.0)

  std::vector<double> rolled;
  win.window_counts(rolled);
  const std::vector<double> batch = stats::bin_counts(
      times, 100.0 - kBin * kWindowBins, 100.0, kBin);
  EXPECT_EQ(rolled, batch);
  EXPECT_EQ(win.completed_bins(), 200u);
}

TEST(WindowedBurstLull, MergedIsBitIdenticalToBatchOverWindow) {
  const std::vector<double> x = count_series(730, 105, 0.7);
  constexpr std::size_t kBucket = 25, kBuckets = 8;  // 200-bin window

  stats::WindowedBurstLull win(kBucket, kBuckets);
  win.push(std::span<const double>(x));
  ASSERT_EQ(win.open_observations(), 730 % kBucket);

  // Batch accumulator over the merged() coverage: the resident closed
  // buckets plus the open tail.
  const std::size_t covered = win.window_observations();
  stats::BurstLullAccumulator batch;
  for (std::size_t i = x.size() - covered; i < x.size(); ++i)
    batch.push(x[i]);

  const stats::BurstLull a = win.merged().finish();
  const stats::BurstLull b = batch.finish();
  EXPECT_EQ(a.mean_burst_bins(), b.mean_burst_bins());
  EXPECT_EQ(a.mean_lull_bins(), b.mean_lull_bins());
}

TEST(WindowedMoments, MergedMatchesSerialPassToRounding) {
  const std::vector<double> x = count_series(600, 106);
  stats::WindowedMoments win(50, 4);  // 200-bin window
  win.push(std::span<const double>(x));

  stats::MomentAccumulator serial;
  for (std::size_t i = x.size() - 200; i < x.size(); ++i) serial.push(x[i]);

  const stats::MomentAccumulator merged = win.merged();
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12 * std::abs(serial.mean()));
  EXPECT_NEAR(merged.variance_population(), serial.variance_population(),
              1e-10 * serial.variance_population());
}

// --- Bucket merge algebra: what the rings' merged() folds rest on ------

TEST(BucketMerge, MomentMergeIsDeterministicAndAccurate) {
  const std::vector<double> x = count_series(10000, 1);
  stats::MomentAccumulator serial;
  serial.push(std::span<const double>(x));

  // Three contiguous buckets, folded in bucket order.
  auto run_fold = [&] {
    stats::MomentAccumulator a, b, c;
    a.push(std::span<const double>(x).subspan(0, 3000));
    b.push(std::span<const double>(x).subspan(3000, 4500));
    c.push(std::span<const double>(x).subspan(7500));
    a.merge(b);
    a.merge(c);
    return a;
  };
  const stats::MomentAccumulator m1 = run_fold();
  const stats::MomentAccumulator m2 = run_fold();

  // Fixed fold order => identical bits run to run.
  EXPECT_EQ(m1.mean(), m2.mean());
  EXPECT_EQ(m1.variance_sample(), m2.variance_sample());

  // vs the serial pass: exact count/extrema, rounding-level moments.
  EXPECT_EQ(m1.count(), serial.count());
  EXPECT_EQ(m1.min(), serial.min());
  EXPECT_EQ(m1.max(), serial.max());
  EXPECT_NEAR(m1.mean(), serial.mean(), 1e-12 * std::abs(serial.mean()));
  EXPECT_NEAR(m1.variance_sample(), serial.variance_sample(),
              1e-10 * serial.variance_sample());
}

TEST(BucketMerge, MomentMergeWithEmptyOperandsIsExact) {
  const std::vector<double> x = count_series(100, 2);
  stats::MomentAccumulator serial;
  serial.push(std::span<const double>(x));

  stats::MomentAccumulator a, empty;
  a.push(std::span<const double>(x));
  a.merge(empty);  // no-op
  EXPECT_EQ(a.mean(), serial.mean());
  EXPECT_EQ(a.variance_sample(), serial.variance_sample());

  stats::MomentAccumulator b;
  b.merge(a);  // copy into empty
  EXPECT_EQ(b.mean(), serial.mean());
  EXPECT_EQ(b.variance_sample(), serial.variance_sample());
  EXPECT_EQ(b.count(), serial.count());
}

TEST(BucketMerge, BurstLullMergeIsTrulyAssociative) {
  const std::vector<double> x = count_series(5000, 6);
  stats::BurstLullAccumulator serial;
  serial.push(std::span<const double>(x));
  const stats::BurstLull want = serial.finish();

  // Contiguous three-way split at arbitrary (run-splitting) boundaries.
  auto part = [&](std::size_t lo, std::size_t hi) {
    stats::BurstLullAccumulator acc;
    acc.push(std::span<const double>(x).subspan(lo, hi - lo));
    return acc;
  };
  stats::BurstLullAccumulator a = part(0, 1237);
  stats::BurstLullAccumulator b = part(1237, 3411);
  stats::BurstLullAccumulator c = part(3411, x.size());

  // (a + b) + c
  stats::BurstLullAccumulator left = a;
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  stats::BurstLullAccumulator bc = b;
  bc.merge(c);
  stats::BurstLullAccumulator right = a;
  right.merge(bc);

  const stats::BurstLull l = left.finish();
  const stats::BurstLull r = right.finish();
  EXPECT_EQ(l.burst_lengths, want.burst_lengths);
  EXPECT_EQ(l.lull_lengths, want.lull_lengths);
  EXPECT_EQ(r.burst_lengths, want.burst_lengths);
  EXPECT_EQ(r.lull_lengths, want.lull_lengths);
}

// --- Windowed Poisson test ---------------------------------------------

TEST(WindowedPoissonTest, RingMatchesBatchTestOverAlignedWindow) {
  const std::vector<double> times = poisson_arrivals(100.0, 0.08, 108);
  stats::PoissonTestConfig config;
  config.interval_length = 10.0;
  constexpr std::size_t kWindowIntervals = 4;

  stats::WindowedPoissonTest win(config, 0.0, kWindowIntervals);
  win.push(std::span<const double>(times));
  win.advance_to(100.5);  // completes intervals 0..9; window = 6..9
  ASSERT_EQ(win.completed_intervals(), 10u);

  std::vector<double> tail;
  for (double t : times)
    if (t >= 60.0 && t < 100.0) tail.push_back(t);
  const stats::PoissonTestResult batch =
      stats::test_poisson_arrivals(tail, config, 60.0, 100.0);

  const stats::PoissonTestResult rolled = win.result();
  EXPECT_EQ(rolled.n_intervals, batch.n_intervals);
  EXPECT_EQ(rolled.n_pass_exponential, batch.n_pass_exponential);
  EXPECT_EQ(rolled.n_pass_independence, batch.n_pass_independence);
  EXPECT_EQ(rolled.poisson, batch.poisson);
}

// --- Whittle warm starts and the block-update refitter ------------------

fft::Periodogram noise_periodogram(unsigned seed) {
  const std::vector<double> x = count_series(2048, seed, 5.0);
  fft::AveragedPeriodogram averaged(256);
  for (std::size_t s = 0; s + 256 <= x.size(); s += 256)
    averaged.push(std::span<const double>(x).subspan(s, 256));
  return averaged.finish();
}

TEST(WhittleWarmStart, JunkHintFallsBackToTheGridSearchResult) {
  const fft::Periodogram pg = noise_periodogram(109);
  const stats::WhittleResult cold = stats::whittle_fgn_from_periodogram(pg);

  // A hint nowhere near the minimum fails the 3-point bracket check and
  // the search falls back to the 21-point grid — same minimizer bits.
  stats::WhittleOptions junk;
  junk.hurst_hint = 0.97;
  const stats::WhittleResult warm = stats::whittle_fgn_from_periodogram(pg, junk);
  EXPECT_EQ(warm.hurst, cold.hurst);
  EXPECT_EQ(warm.objective, cold.objective);

  // A valid hint brackets immediately; the refinement window differs,
  // so agreement is to the golden-section tolerance, not bitwise.
  stats::WhittleOptions good;
  good.hurst_hint = cold.hurst;
  const stats::WhittleResult hinted =
      stats::whittle_fgn_from_periodogram(pg, good);
  EXPECT_NEAR(hinted.hurst, cold.hurst, 1e-3);
}

TEST(WhittleRefitter, MatchesColdFitWithinLatticeContract) {
  const fft::Periodogram pg = noise_periodogram(110);
  const stats::WhittleResult cold = stats::whittle_fgn_from_periodogram(pg);

  stats::WhittleRefitter refitter(pg.frequency);
  const stats::WhittleResult refit = refitter.fit(pg);
  EXPECT_NEAR(refit.hurst, cold.hurst, 1e-4);  // the documented contract
  EXPECT_NEAR(refit.objective, cold.objective, 1e-6);
  EXPECT_GT(refit.stderr_hurst, 0.0);

  // Poisson counts are H = 1/2 noise; the fit should say so.
  EXPECT_NEAR(refit.hurst, 0.5, 0.1);
}

TEST(WhittleRefitter, HintWindowAndJunkHintAgreeWithFullScan) {
  const fft::Periodogram pg = noise_periodogram(111);
  stats::WhittleRefitter refitter(pg.frequency);
  const stats::WhittleResult full = refitter.fit(pg);

  stats::WhittleOptions near_hint;
  near_hint.hurst_hint = full.hurst;
  EXPECT_EQ(refitter.fit(pg, near_hint).hurst, full.hurst);

  // A junk hint's neighborhood minimum lands on the window edge, which
  // triggers the full rescan — identical winner, identical bits.
  stats::WhittleOptions junk;
  junk.hurst_hint = 0.95;
  EXPECT_EQ(refitter.fit(pg, junk).hurst, full.hurst);
}

TEST(WhittleRefitter, RejectsMismatchedFrequencyGrid) {
  const fft::Periodogram pg = noise_periodogram(112);
  stats::WhittleRefitter refitter(pg.frequency);

  const std::vector<double> x = count_series(128, 113, 5.0);
  fft::AveragedPeriodogram other(128);
  other.push(std::span<const double>(x));
  EXPECT_THROW(refitter.fit(other.finish()), std::invalid_argument);
  EXPECT_THROW(stats::WhittleRefitter(std::vector<double>{0.1, 0.2}),
               std::invalid_argument);
}

// --- Geometry validation ------------------------------------------------

void expect_geometry_error(const stream::WindowedOptions& opt,
                           const std::string& needle) {
  try {
    stream::window_geometry(opt);
    ADD_FAILURE() << "geometry accepted; wanted an error naming '" << needle
                  << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(WindowGeometry, RejectsMisalignedSpansWithReasonedMessages) {
  stream::WindowedOptions opt;
  opt.bin = 1.0;
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);  // no window

  opt.window = 64.0;
  opt.slide = 24.0;  // does not divide the window
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);

  opt.slide = 32.0;
  opt.poisson_interval = 7.0;  // does not divide the slide
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);

  opt.poisson_interval = 8.0;
  opt.segment_bins = 6;  // does not tile the slide
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);

  // Tiles the slide, but an 8-bin periodogram has 3 ordinates and the
  // Whittle refit needs 8: rejected up front, not at the first report.
  opt.segment_bins = 8;
  expect_geometry_error(opt, "even and >= 18");
  opt.segment_bins = 16;  // 7 ordinates, one short
  expect_geometry_error(opt, "even and >= 18");
  // The same limit holds for a derived segment (slide / 2^0 = 16 bins).
  opt.window = 64.0;
  opt.slide = 16.0;
  opt.segment_bins = 0;
  expect_geometry_error(opt, "derived segment length 16 bins");

  // The smallest geometry that reports: 18-bin segments, 8 ordinates.
  opt.window = 72.0;
  opt.slide = 36.0;
  opt.poisson_interval = 9.0;
  opt.segment_bins = 18;
  const stream::WindowGeometry g = stream::window_geometry(opt);
  EXPECT_EQ(g.window_bins, 72u);
  EXPECT_EQ(g.slide_bins, 36u);
  EXPECT_EQ(g.segment_bins, 18u);
  EXPECT_EQ(g.segments_per_window, 4u);
  EXPECT_EQ(g.window_intervals, 8u);
  EXPECT_EQ(g.intervals_per_slide, 4u);
}

TEST(WindowGeometry, SmallestAcceptedSegmentReports) {
  // 18 bins is enough for the refitter: the engine reports instead of
  // throwing "too few ordinates" at its first window.
  stream::WindowedOptions opt;
  opt.bin = 1.0;
  opt.window = 72.0;
  opt.slide = 36.0;
  opt.segment_bins = 18;
  const std::vector<double> times = poisson_arrivals(200.0, 0.25, 7);
  std::size_t reports = 0;
  stream::WindowedAnalyzer engine(
      opt, 0.0, [&](const stream::WindowReport&) { ++reports; });
  engine.push_times(times);
  EXPECT_GT(reports, 0u);
}

// --- End-to-end analyzer vs the from-scratch reference ------------------

stream::WindowedOptions small_options() {
  stream::WindowedOptions opt;
  opt.bin = 0.5;
  opt.window = 60.0;
  opt.slide = 30.0;
  opt.sweep_levels = 1;  // segment = slide_bins / 2 = 30 bins
  opt.poisson_interval = 10.0;
  return opt;
}

TEST(WindowedAnalyzer, ReportsMatchBatchRecomputationPerWindow) {
  const stream::WindowedOptions opt = small_options();
  const std::vector<double> times = poisson_arrivals(300.0, 0.04, 114);

  std::vector<stream::WindowReport> rolling;
  stream::WindowedAnalyzer engine(
      opt, 0.0, [&](const stream::WindowReport& r) { rolling.push_back(r); });
  // Chunked pushes, like a source drain.
  for (std::size_t i = 0; i < times.size(); i += 97) {
    const std::size_t n = std::min<std::size_t>(97, times.size() - i);
    engine.push_times(std::span<const double>(times).subspan(i, n));
  }
  engine.finish(300.0);

  ASSERT_EQ(rolling.size(), 9u);  // t1 = 60, 90, ..., 300
  EXPECT_FALSE(rolling.front().whittle_warm);
  EXPECT_TRUE(rolling.back().whittle_warm);

  for (const stream::WindowReport& r : rolling) {
    std::vector<double> in_window;
    for (double t : times)
      if (t >= r.t0 && t < r.t1) in_window.push_back(t);
    const stream::WindowReport batch =
        stream::analyze_window_batch(in_window, r.t0, opt);

    EXPECT_EQ(r.packets, batch.packets);
    EXPECT_EQ(r.mean_burst_bins, batch.mean_burst_bins);
    EXPECT_EQ(r.mean_lull_bins, batch.mean_lull_bins);
    EXPECT_EQ(r.vt_hurst, batch.vt_hurst);
    EXPECT_NEAR(r.mean_count, batch.mean_count,
                1e-12 * std::abs(batch.mean_count));
    EXPECT_NEAR(r.var_count, batch.var_count, 1e-12 * batch.var_count);
    EXPECT_NEAR(r.whittle.hurst, batch.whittle.hurst, 1e-4);
    ASSERT_EQ(r.sweep_hurst.size(), batch.sweep_hurst.size());
    for (std::size_t l = 0; l < r.sweep_hurst.size(); ++l)
      EXPECT_NEAR(r.sweep_hurst[l], batch.sweep_hurst[l], 1e-4);
    ASSERT_TRUE(r.poisson.has_value());
    ASSERT_TRUE(batch.poisson.has_value());
    EXPECT_EQ(r.poisson->n_intervals, batch.poisson->n_intervals);
    EXPECT_EQ(r.poisson->n_pass_exponential,
              batch.poisson->n_pass_exponential);
    EXPECT_EQ(r.poisson->n_pass_independence,
              batch.poisson->n_pass_independence);
  }
}

TEST(WindowedAnalyzer, CsvAndToStringRenderEveryReport) {
  const stream::WindowedOptions opt = small_options();
  const std::vector<double> times = poisson_arrivals(120.0, 0.05, 115);

  std::vector<stream::WindowReport> reports;
  stream::WindowedAnalyzer engine(
      opt, 0.0, [&](const stream::WindowReport& r) { reports.push_back(r); });
  engine.push_times(times);
  engine.finish(120.0);
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_NE(stream::window_csv_header().find("whittle_hurst"),
            std::string::npos);
  for (const stream::WindowReport& r : reports) {
    const std::string row = stream::window_csv_row(r);
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), 14);
    EXPECT_NE(stream::to_string(r).find("pkts="), std::string::npos);
  }
}

}  // namespace
}  // namespace wan

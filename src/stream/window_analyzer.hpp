// Sliding-window incremental estimation over a packet stream — the
// algorithmic core of the planned wantraffic_monitor daemon.
//
// WindowedAnalyzer consumes a time-ordered packet stream (any
// PacketChunkSource or PacketColumnSource, filters included) and emits
// one WindowReport per slide: count moments, burst/lull structure,
// variance-time H, a Whittle H fit on a rolling averaged periodogram,
// an optional aggregation-stability sweep, and an optional windowed
// Appendix-A Poisson verdict. Every hot estimator updates
// incrementally:
//   * binning touches only the new events (WindowedBinCounts ring);
//   * the spectral state advances by ONE segment FFT per completed
//     segment (fft::SegmentRing / SegmentRingCascade), never a
//     window-wide recompute;
//   * the Whittle refit is a block update: the frequency grid never
//     changes, so a WhittleRefitter built at the first report holds
//     precomputed density tables over an H lattice, and each refit is
//     a hint-windowed lattice scan plus one exact density pass —
//     microseconds-to-a-millisecond instead of a from-scratch search
//     (the previous window's H is still the warm-start hint);
//   * burst/lull state is a bucket ring merged in O(window/slide);
//   * Appendix-A outcomes ride a ring, each interval tested once.
// The only O(window) terms per slide are the materialization of the
// window's count series and the variance-time/moment pass over it —
// linear in BINS, not packets or FFT size.
//
// analyze_window_batch is the from-scratch reference: it recomputes a
// single window with the batch primitives (bin_counts,
// AveragedPeriodogram, variance_time_plot, burst_lull_structure,
// test_poisson_arrivals). The rolling and batch paths are pinned
// against each other: periodogram ordinates bit-identical (the
// SegmentRing sums in batch push order), counts/burst/VT exact,
// moments and the warm-started Whittle H equal to rounding.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/fft/rolling_periodogram.hpp"
#include "src/stats/poisson_test.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stats/whittle.hpp"
#include "src/stats/window.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"

namespace wan::stream {

struct WindowedOptions {
  double bin = 1.0;     ///< count-process bin width, seconds
  double window = 0.0;  ///< sliding-window span, seconds (required)
  double slide = 0.0;   ///< report cadence, seconds; 0 means == window

  /// Welch segment length for the rolling periodogram, in bins; 0
  /// derives slide_bins >> sweep_levels (one new segment per level-0
  /// slide). Must be even, >= 18 (its periodogram then has the 8
  /// ordinates the Whittle refit needs), and divide the slide so
  /// windows hold whole segments.
  std::size_t segment_bins = 0;

  /// Extra 2x aggregation levels for the windowed Whittle
  /// aggregation-stability sweep (0 = level 0 only).
  std::size_t sweep_levels = 0;

  /// Appendix-A interval length I, seconds; 0 disables the windowed
  /// Poisson test. Must divide both slide and window when set.
  double poisson_interval = 0.0;

  // Filters, applied in this order (matching analyze_columns).
  std::optional<trace::Protocol> protocol;
  bool orig_data_only = false;
};

/// One report row, emitted at each slide boundary once the first full
/// window has been observed. The window is [t0, t1), t1 - t0 == window.
struct WindowReport {
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t packets = 0;     ///< events in the window (post-filter)
  double mean_count = 0.0;       ///< per-bin count moments
  double var_count = 0.0;        ///< population variance
  double mean_burst_bins = 0.0;
  double mean_lull_bins = 0.0;
  double vt_hurst = 0.5;
  stats::WhittleResult whittle;  ///< fGn fit on the rolling periodogram
  bool whittle_warm = false;     ///< warm-started from the previous window
  /// Whittle H per aggregation level (entry 0 == whittle.hurst); empty
  /// when sweep_levels == 0.
  std::vector<double> sweep_hurst;
  std::optional<stats::PoissonTestResult> poisson;
};

/// Validated/derived integer geometry of a windowed run — exposed so
/// tools, tests and benches agree on one set of rules.
struct WindowGeometry {
  std::size_t window_bins = 0;
  std::size_t slide_bins = 0;
  std::size_t segment_bins = 0;
  std::size_t segments_per_window = 0;  ///< level-0 ring capacity
  std::size_t window_intervals = 0;     ///< 0 when poisson disabled
  std::size_t intervals_per_slide = 0;  ///< 0 when poisson disabled
};

/// Checks and derives the window geometry; throws std::invalid_argument
/// with a reasoned message on any misalignment (window/slide not
/// multiples of bin, slide not dividing window, segment length not
/// tiling the slide, sweep levels that cannot align, Poisson interval
/// not dividing the slide).
WindowGeometry window_geometry(const WindowedOptions& options);

/// Push-driven incremental engine. Feed nondecreasing (post-filter)
/// event times; each completed slide boundary past the first full
/// window invokes the sink with that window's report. The engine keeps
/// O(window_bins + segments * segment_bins) state — bounded for an
/// unbounded stream, which is what makes a multi-day monitor feasible.
class WindowedAnalyzer {
 public:
  WindowedAnalyzer(const WindowedOptions& options, double t_begin,
                   std::function<void(const WindowReport&)> sink);
  ~WindowedAnalyzer();

  WindowedAnalyzer(WindowedAnalyzer&&) = delete;

  void push_times(std::span<const double> times);

  /// Completes bins/intervals through t_end (emitting any boundary
  /// reports). Call once at end of stream.
  void finish(double t_end);

  const WindowGeometry& geometry() const { return geometry_; }
  std::uint64_t reports_emitted() const { return reports_; }

 private:
  void on_bin_complete(double count);
  void emit_report();

  WindowedOptions options_;
  WindowGeometry geometry_;
  double t_begin_ = 0.0;
  std::function<void(const WindowReport&)> sink_;

  stats::WindowedBinCounts counts_;
  fft::SegmentRingCascade spectrum_;
  stats::WindowedMoments moments_;
  stats::WindowedBurstLull burst_;
  std::unique_ptr<stats::WindowedPoissonTest> poisson_;
  /// Built lazily at the first report (it needs the frequency grid);
  /// one refitter serves every cascade level — same segment length,
  /// same grid.
  std::unique_ptr<stats::WhittleRefitter> refitter_;
  std::optional<double> last_hurst_;  ///< warm-start hint
  std::uint64_t bins_done_ = 0;
  std::uint64_t reports_ = 0;
  std::vector<double> scratch_counts_;
};

/// Drains the (column) source through the configured filters and the
/// incremental engine; returns every report in slide order. Throws
/// std::invalid_argument when the stream is shorter than one window.
std::vector<WindowReport> analyze_windowed(PacketColumnSource& source,
                                           const WindowedOptions& options);

/// From-scratch reference for ONE window: `times` are the post-filter
/// events in [t0, t0 + window), in time order. Bins, then runs the
/// batch estimators (AveragedPeriodogram segment loop, cold Whittle,
/// variance_time_plot, burst_lull_structure, serial moments,
/// test_poisson_arrivals). This is what the rolling engine is pinned
/// against in tests and measured against in bench_perf_window.
WindowReport analyze_window_batch(std::span<const double> times, double t0,
                                  const WindowedOptions& options);

/// Counts-form of the reference, for callers that already hold the
/// window's count series (analyze_window_batch bins, then calls this).
/// poisson is skipped (counts cannot reproduce arrival times).
WindowReport analyze_window_counts(std::span<const double> counts, double t0,
                                   const WindowedOptions& options,
                                   std::uint64_t packets);

/// One-line human rendering of a report row.
std::string to_string(const WindowReport& report);

/// Figure-CSV rendering: header + one row per report, doubles at %.17g
/// (round-trip exact) like vt_csv.
std::string window_csv_header();
std::string window_csv_row(const WindowReport& report);

}  // namespace wan::stream

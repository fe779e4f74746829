// Section VII at week scale: the long-trace Whittle / Beran study the
// streaming layer (PR 2) and the planned spectral engine (this PR)
// together make affordable.
//
// A 168-hour TCP packet trace is synthesized and analyzed in bounded
// memory (StreamingPacketSynthesizer -> protocol filter -> 1 s bins),
// then the TELNET and FTPDATA count processes are taken through
// periodogram -> Whittle(fGn) / Whittle(fARIMA) -> Beran at several
// aggregation levels M. The paper's Section VII argument is exactly this
// sweep: a self-similar process shows a stable Hurst estimate across
// aggregation levels, and week-long series pin H far more tightly than
// the hour-scale traces of the earlier figure benches.
//
// Outputs:
//  - FIG_sec7_long_whittle.csv (or argv[2]): one row per
//    (protocol, M) with Whittle-H, CI, fARIMA-H, Beran verdict.
//  - BENCH_perf.json rows (argv[1]) with synthesis+analysis throughput
//    and peak-RSS extras (VmHWM growth, as in bench_perf_stream) proving
//    the week-scale run stays chunk-bounded.
//
// `--smoke` shrinks the trace to 2 hours for CI.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_harness.hpp"
#include "src/fft/periodogram.hpp"
#include "src/plot/ascii_plot.hpp"
#include "src/stats/beran.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/whittle.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

using namespace wan;

namespace {

/// Reads an integer field like "VmHWM:   12345 kB" from
/// /proc/self/status; 0 if unavailable (non-Linux).
long read_status_kb(const std::string& field) {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atol(line.c_str() + field.size() + 1);
    }
  }
  return 0;
}

/// Resets VmHWM to the current VmRSS so per-phase peaks are observable.
bool reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  if (!os) return false;
  os << "5";
  return os.good();
}

struct LevelRow {
  std::size_t m = 1;
  std::size_t bins = 0;
  stats::BeranResult beran;        ///< carries the fGn Whittle fit
  stats::WhittleResult farima;
};

struct ProtocolStudy {
  std::string name;
  double stream_ms = 0.0;          ///< synthesize + filter + bin
  double whittle_ms = 0.0;         ///< all levels' spectral analysis
  std::uint64_t packets = 0;
  long peak_rss_kb = 0;
  std::vector<LevelRow> levels;
};

ProtocolStudy run_study(const synth::PacketDatasetConfig& cfg,
                        trace::Protocol proto, const char* name,
                        const std::vector<std::size_t>& levels) {
  ProtocolStudy s;
  s.name = name;

  stream::PipelineOptions opt;
  opt.bin = 1.0;  // 1 s count bins: the tens-of-seconds regime after
                  // aggregation, week-long series before it
  opt.protocol = proto;

  const long before = read_status_kb("VmRSS:");
  reset_peak_rss();
  std::vector<double> counts;
  s.stream_ms = bench::min_time_ms(
      [&] {
        synth::StreamingPacketSynthesizer src(cfg);
        stream::ColumnsFromRows columns(src);
        stream::PipelineResult res = stream::analyze_columns(columns, opt);
        s.packets = res.packets;
        counts = std::move(res.counts);
      },
      /*reps=*/1);

  s.whittle_ms = bench::min_time_ms(
      [&] {
        s.levels.clear();
        for (std::size_t m : levels) {
          const auto agg = m == 1 ? counts : stats::aggregate_mean(counts, m);
          if (agg.size() < 512) break;
          LevelRow row;
          row.m = m;
          row.bins = agg.size();
          // One periodogram per level serves both Whittle families and
          // the Beran test — identical results, half the FFT work.
          const auto pg = fft::periodogram(agg);
          row.beran =
              stats::beran_fgn_test_from_periodogram(pg, agg.size());
          row.farima = stats::whittle_farima_from_periodogram(pg);
          s.levels.push_back(row);
        }
      },
      /*reps=*/1);
  s.peak_rss_kb = read_status_kb("VmHWM:") - before;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* csv_path = "FIG_sec7_long_whittle.csv";
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      csv_path = argv[i];
  }

  const double hours = smoke ? 2.0 : 168.0;
  std::printf("=== Section VII at %.0f h: streamed Whittle / Beran study "
              "===\n\n",
              hours);

  auto cfg = synth::lbl_pkt_preset("LONG-WK", /*tcp_only=*/true, 1994);
  cfg.hours = hours;

  const std::vector<std::size_t> levels =
      smoke ? std::vector<std::size_t>{1, 4, 16}
            : std::vector<std::size_t>{1, 4, 16, 64, 256};

  std::vector<ProtocolStudy> studies;
  studies.push_back(
      run_study(cfg, trace::Protocol::kTelnet, "TELNET", levels));
  studies.push_back(
      run_study(cfg, trace::Protocol::kFtpData, "FTPDATA", levels));

  // Human-readable table + figure CSV.
  std::ofstream csv(csv_path, std::ios::trunc);
  csv << "protocol,m,bin_seconds,n_bins,whittle_hurst,ci_low,ci_high,"
         "farima_hurst,beran_p,fgn_consistent\n";
  std::vector<std::vector<std::string>> rows;
  for (const auto& s : studies) {
    for (const auto& row : s.levels) {
      const auto& w = row.beran.whittle;
      rows.push_back({s.name, std::to_string(row.m),
                      std::to_string(row.bins), plot::fmt(w.hurst, 3),
                      "[" + plot::fmt(w.ci_low, 3) + ", " +
                          plot::fmt(w.ci_high, 3) + "]",
                      plot::fmt(row.farima.hurst, 3),
                      plot::fmt(row.beran.p_value, 3),
                      row.beran.consistent ? "fGn-consistent" : "NOT fGn"});
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s,%zu,%.17g,%zu,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n",
                    s.name.c_str(), row.m,
                    static_cast<double>(row.m) * 1.0, row.bins, w.hurst,
                    w.ci_low, w.ci_high, row.farima.hurst,
                    row.beran.p_value, row.beran.consistent ? 1 : 0);
      csv << buf;
    }
  }
  std::printf("%s\n",
              plot::render_table({"process", "M", "bins", "Whittle H",
                                  "95% CI", "fARIMA H", "Beran p",
                                  "verdict"},
                                 rows)
                  .c_str());
  std::printf("wrote %s\n", csv_path);
  std::printf("paper: stable H across M is the self-similar signature; "
              "week-long series shrink the\nWhittle CI roughly 4x vs the "
              "2 h traces in bench_sec7_whittle.\n\n");

  // Perf rows: throughput + chunk-bounded memory at week scale.
  bench::Harness harness(argc, argv);
  for (const auto& s : studies) {
    bench::BenchResult r;
    r.op = "long_whittle/" + s.name + (smoke ? "/smoke" : "/week");
    r.threads = par::thread_count();
    r.items = static_cast<double>(s.packets);
    r.unit = "packets";
    r.serial_ms = s.stream_ms;
    r.parallel_ms = s.stream_ms;
    r.throughput =
        s.stream_ms > 0.0 ? r.items / (s.stream_ms / 1000.0) : 0.0;
    r.identical = true;
    r.extra = {
        {"hours", std::to_string(hours)},
        {"whittle_ms", std::to_string(s.whittle_ms)},
        {"levels", std::to_string(s.levels.size())},
        {"peak_rss_kb", std::to_string(s.peak_rss_kb)},
    };
    harness.add(r);
  }

  // Sanity gate: every level must have produced a finite estimate inside
  // the admissible H range.
  for (const auto& s : studies)
    for (const auto& row : s.levels)
      if (!(row.beran.whittle.hurst > 0.5 && row.beran.whittle.hurst < 1.0))
        return 1;
  return 0;
}

#include "src/stream/pipeline.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/par/parallel.hpp"
#include "src/trace/packet_trace.hpp"

namespace wan::stream {

namespace {

constexpr std::size_t kMaxShards = 1024;

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::size_t expected_bins(const StreamInfo& info, double bin) {
  if (bin <= 0.0 || info.t_end <= info.t_begin) return 0;
  return static_cast<std::size_t>(
      std::ceil((info.t_end - info.t_begin) / bin));
}

void require_series(const StreamInfo& info, double bin) {
  if (expected_bins(info, bin) < 16)
    throw std::invalid_argument("analyze_stream: series too short");
}

// One bin grid per shard over the serial time range. Bin increments are
// exact integer adds into identical grids, so the shard-ordered merge in
// finish() reproduces the serial accumulator's bits however the rows
// were split — and with one shard it is the serial accumulator.
class ShardCounts {
 public:
  ShardCounts(const StreamInfo& info, double bin, std::size_t n_shards)
      : info_(info), bin_(bin), packets_(n_shards, 0) {
    bins_.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s)
      bins_.emplace_back(info.t_begin, info.t_end, bin);
  }

  void drain(std::size_t shard, PacketColumnSource& source) {
    PacketColumns chunk;
    while (source.next(chunk)) {
      packets_[shard] += chunk.size();
      bins_[shard].add(std::span<const double>(chunk.time));
    }
  }

  PipelineResult finish() {
    for (std::size_t s = 1; s < bins_.size(); ++s) {
      bins_[0].merge(bins_[s]);
      packets_[0] += packets_[s];
    }
    return finish_counts(info_, bin_, packets_[0], bins_[0].take());
  }

 private:
  StreamInfo info_;
  double bin_;
  std::vector<stats::BinCountsAccumulator> bins_;
  std::vector<std::uint64_t> packets_;
};

}  // namespace

FilterStack::FilterStack(PacketColumnSource& source,
                         const PipelineOptions& options)
    : top_(&source) {
  if (options.protocol || options.orig_data_only) {
    filter_.emplace(*top_, options.protocol, options.orig_data_only);
    top_ = &*filter_;
  }
  if (options.remove_outliers) {
    no_outliers_.emplace(*top_, options.outlier_max_bytes,
                         options.outlier_max_rate);
    top_ = &*no_outliers_;
  }
}

PipelineResult analyze_columns(PacketColumnSource& source,
                               const PipelineOptions& options) {
  FilterStack filters(source, options);
  const StreamInfo info = filters.top().info();
  require_series(info, options.bin);
  ShardCounts counts(info, options.bin, 1);
  counts.drain(0, filters.top());
  return counts.finish();
}

PipelineResult analyze_sharded_sources(
    const std::function<std::unique_ptr<PacketChunkSource>(std::size_t)>&
        make_shard,
    std::size_t n_shards, const PipelineOptions& options) {
  if (n_shards == 0 || n_shards > kMaxShards)
    throw std::invalid_argument(
        "analyze_sharded_sources: n_shards must be in [1, " +
        std::to_string(kMaxShards) + "]");

  // Shard 0's info IS the serial info (the factory contract), so the
  // bin grid and the derived name are fixed before any shard runs.
  auto first = make_shard(0);
  StreamInfo info = first->info();
  info.name += filter_suffix(options.protocol, options.orig_data_only,
                             options.remove_outliers);
  require_series(info, options.bin);

  // Each shard is fully independent — its own source, its own filter
  // stack (including the outlier two-pass: the stack resets only this
  // shard's source) — so a flat parallel_for over shards is enough.
  // Grain 1: shards are the unit of work.
  ShardCounts counts(info, options.bin, n_shards);
  par::parallel_for(0, n_shards, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s) {
      auto source = s == 0 ? std::move(first) : make_shard(s);
      ColumnsFromRows columns(*source);
      FilterStack filters(columns, options);
      counts.drain(s, filters.top());
    }
  });
  return counts.finish();
}

PipelineResult finish_counts(StreamInfo info, double bin,
                             std::uint64_t packets,
                             std::vector<double> counts) {
  PipelineResult result;
  result.info = std::move(info);
  result.bin = bin;
  result.packets = packets;
  result.counts = std::move(counts);
  stats::VtAccumulator vt(
      stats::default_aggregation_levels(result.counts.size()));
  stats::BurstLullAccumulator bl;
  stats::MomentAccumulator moments;
  // Counts are already one contiguous column; interleaving the three
  // accumulators per element lets their independent update chains
  // overlap (fastest measured orientation).
  for (double c : result.counts) {
    vt.push(c);
    bl.push(c);
    moments.push(c);
  }
  result.vt = vt.finish();
  result.burst_lull = bl.finish();
  result.count_moments = moments;
  return result;
}

PipelineResult analyze_batch(const trace::PacketTrace& trace,
                             const PipelineOptions& options) {
  const trace::PacketTrace* t = &trace;
  trace::PacketTrace filtered;
  if (options.protocol) {
    filtered = t->filter(*options.protocol);
    t = &filtered;
  }
  if (options.orig_data_only) {
    filtered = t->originator_data_packets();
    t = &filtered;
  }
  if (options.remove_outliers) {
    filtered = t->remove_bulk_outliers(options.outlier_max_bytes,
                                       options.outlier_max_rate);
    t = &filtered;
  }

  // The genuinely batch implementations (span statistics over the full
  // materialized series) — NOT the streaming accumulators — so the
  // parity tests compare two independent code paths end to end.
  PipelineResult result;
  result.info = {t->name(), t->t_begin(), t->t_end()};
  result.bin = options.bin;
  result.packets = t->size();
  const std::vector<double> times = t->packet_times();
  result.counts = stats::bin_counts(times, result.info.t_begin,
                                    result.info.t_end, options.bin);
  result.vt = stats::variance_time_plot(result.counts);
  result.burst_lull = stats::burst_lull_structure(result.counts);
  for (double c : result.counts) result.count_moments.push(c);
  return result;
}

std::string vt_csv(const PipelineResult& result) {
  std::string out = "# variance-time name=" + result.info.name +
                    " bin=" + fmt_double(result.bin) +
                    " packets=" + std::to_string(result.packets) +
                    " base_mean=" + fmt_double(result.vt.base_mean) + "\n";
  out += "m,variance,normalized,n_blocks\n";
  for (const stats::VtPoint& p : result.vt.points) {
    out += std::to_string(p.m) + ',' + fmt_double(p.variance) + ',' +
           fmt_double(p.normalized) + ',' + std::to_string(p.n_blocks) + '\n';
  }
  return out;
}

}  // namespace wan::stream

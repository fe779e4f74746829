// Parity tests for the streaming layer (ctest label `stream`): every
// streaming component must reproduce its batch counterpart exactly —
// record for record for sources and filters, bit for bit for the
// accumulators, byte for byte for files and figure CSVs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/stats/counting.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stream/binary_chunk.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/csv_chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/columnar_filters.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/binary_io.hpp"
#include "src/trace/csv_io.hpp"

namespace wan {
namespace {

// Deleting on destruction keeps repeated runs from accumulating files.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// Field-by-field comparison; double compares are exact on purpose (the
// streaming layer promises identical values, not close ones).
void expect_same_records(const trace::PacketTrace& got,
                         const trace::PacketTrace& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const trace::PacketRecord& g = got.records()[i];
    const trace::PacketRecord& w = want.records()[i];
    ASSERT_EQ(g.time, w.time) << "record " << i;
    ASSERT_EQ(g.protocol, w.protocol) << "record " << i;
    ASSERT_EQ(g.conn_id, w.conn_id) << "record " << i;
    ASSERT_EQ(g.from_originator, w.from_originator) << "record " << i;
    ASSERT_EQ(g.payload_bytes, w.payload_bytes) << "record " << i;
  }
}

// A small but non-trivial trace exercising every filter: several
// protocols, both directions, pure acks, and one bulk-outlier conn.
trace::PacketTrace make_test_trace() {
  trace::PacketTrace t("test", 0.0, 400.0);
  auto add = [&](double time, trace::Protocol proto, std::uint32_t conn,
                 bool orig, std::uint16_t payload) {
    trace::PacketRecord r;
    r.time = time;
    r.protocol = proto;
    r.conn_id = conn;
    r.from_originator = orig;
    r.payload_bytes = payload;
    t.add(r);
  };
  using trace::Protocol;
  for (int i = 0; i < 200; ++i) {
    const double base = i * 1.7;
    add(base, Protocol::kTelnet, 1 + (i % 3), true, 1);
    add(base + 0.1, Protocol::kTelnet, 1 + (i % 3), false, 2);
    add(base + 0.2, Protocol::kFtpData, 10 + (i % 2), true, 512);
    add(base + 0.3, Protocol::kSmtp, 20, true, 0);  // pure ack
  }
  // Conn 99: >1024 bytes at a sustained rate above 8 bytes/s.
  for (int i = 0; i < 20; ++i)
    add(5.0 + i * 0.5, Protocol::kTelnet, 99, true, 100);
  t.sort_by_time();
  return t;
}

synth::PacketDatasetConfig small_pkt_config(bool tcp_only) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("stream-test", tcp_only, /*seed=*/7);
  cfg.hours = 0.25;  // keep the test fast; still thousands of packets
  return cfg;
}

// --- Chunk sources -----------------------------------------------------

TEST(TraceChunkSource, RoundTripsAcrossChunkBoundaries) {
  const trace::PacketTrace t = make_test_trace();
  // Chunk size deliberately not a divisor of the record count.
  stream::TraceChunkSource src(t, /*chunk_size=*/7);
  const trace::PacketTrace back = stream::collect(src);
  EXPECT_EQ(back.name(), t.name());
  EXPECT_EQ(back.t_begin(), t.t_begin());
  EXPECT_EQ(back.t_end(), t.t_end());
  expect_same_records(back, t);

  // reset() replays from the first record.
  src.reset();
  expect_same_records(stream::collect(src), t);
}

TEST(TraceChunkSource, ExhaustedSourceReportsFalseWithEmptyChunk) {
  const trace::PacketTrace t = make_test_trace();
  stream::TraceChunkSource src(t);
  std::vector<trace::PacketRecord> chunk;
  while (src.next(chunk)) {
    EXPECT_FALSE(chunk.empty());
  }
  EXPECT_TRUE(chunk.empty());
  EXPECT_FALSE(src.next(chunk));  // stays exhausted
}

// --- Binary chunked I/O ------------------------------------------------

TEST(BinaryChunk, ChunkedWriterMatchesBatchFileByteForByte) {
  const trace::PacketTrace t = make_test_trace();
  TempFile batch("stream_batch.bin"), chunked("stream_chunked.bin");
  trace::write_binary_file(t, batch.path);
  {
    stream::ChunkedBinaryWriter w(
        chunked.path, {t.name(), t.t_begin(), t.t_end()});
    stream::TraceChunkSource src(t, /*chunk_size=*/13);
    std::vector<trace::PacketRecord> chunk;
    while (src.next(chunk)) w.write(chunk);
    w.close();
    EXPECT_EQ(w.count(), t.size());
  }
  const std::string a = slurp(batch.path), b = slurp(chunked.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(BinaryChunk, SourceStreamsBackTheExactTrace) {
  const trace::PacketTrace t = make_test_trace();
  TempFile f("stream_src.bin");
  trace::write_binary_file(t, f.path);

  stream::BinaryChunkSource src(f.path, /*chunk_size=*/31);
  EXPECT_EQ(src.info().name, t.name());
  EXPECT_EQ(src.info().t_begin, t.t_begin());
  EXPECT_EQ(src.info().t_end, t.t_end());
  expect_same_records(stream::collect(src), t);

  src.reset();
  expect_same_records(stream::collect(src), t);
}

// --- CSV chunked I/O ---------------------------------------------------

TEST(CsvChunk, ChunkedWriterMatchesBatchFileByteForByte) {
  const trace::PacketTrace t = make_test_trace();
  TempFile batch("stream_batch.csv"), chunked("stream_chunked.csv");
  trace::write_csv_file(t, batch.path);
  {
    stream::ChunkedCsvWriter w(chunked.path,
                               {t.name(), t.t_begin(), t.t_end()});
    stream::TraceChunkSource src(t, /*chunk_size=*/17);
    std::vector<trace::PacketRecord> chunk;
    while (src.next(chunk)) w.write(chunk);
    w.close();
  }
  const std::string a = slurp(batch.path), b = slurp(chunked.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(CsvChunk, SourceParsesWhatTheBatchReaderParses) {
  const trace::PacketTrace t = make_test_trace();
  TempFile f("stream_src.csv");
  trace::write_csv_file(t, f.path);

  const trace::PacketTrace batch = trace::read_packet_csv_file(f.path);
  stream::CsvChunkSource src(f.path, /*chunk_size=*/23);
  expect_same_records(stream::collect(src), batch);

  src.reset();
  expect_same_records(stream::collect(src), batch);
}

// --- Filters -----------------------------------------------------------

// The streaming filters are columnar (src/stream/columnar_filters.hpp);
// the batch PacketTrace methods are their oracle.
trace::PacketTrace collect_columns_as_trace(stream::PacketColumnSource& src) {
  stream::RowsFromColumns rows(src);
  return stream::collect(rows);
}

TEST(StreamFilters, ProtocolFilterMatchesBatch) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.filter(trace::Protocol::kTelnet);
  stream::TraceChunkSource base(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(base);
  stream::ColumnFilterSource f(cols, trace::Protocol::kTelnet,
                               /*orig_data=*/false);
  EXPECT_EQ(f.info().name, want.name());
  expect_same_records(collect_columns_as_trace(f), want);
}

TEST(StreamFilters, OriginatorDataFilterMatchesBatch) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.originator_data_packets();
  stream::TraceChunkSource base(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(base);
  stream::ColumnFilterSource f(cols, std::nullopt, /*orig_data=*/true);
  EXPECT_EQ(f.info().name, want.name());
  expect_same_records(collect_columns_as_trace(f), want);
}

TEST(StreamFilters, BulkOutlierSourceMatchesBatch) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.remove_bulk_outliers();
  ASSERT_LT(want.size(), t.size());  // conn 99 must actually be dropped
  stream::TraceChunkSource base(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(base);
  stream::ColumnBulkOutlierSource f(cols);
  EXPECT_EQ(f.info().name, want.name());
  expect_same_records(collect_columns_as_trace(f), want);

  // The second pass reuses the outlier set; replay is identical.
  f.reset();
  expect_same_records(collect_columns_as_trace(f), want);
}

TEST(StreamFilters, StackedFiltersMatchBatchComposition) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.filter(trace::Protocol::kTelnet)
                                      .originator_data_packets()
                                      .remove_bulk_outliers();
  stream::TraceChunkSource base(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(base);
  // The fused source derives the same stacked name and record sequence
  // as the two batch filters applied in turn.
  stream::ColumnFilterSource fused(cols, trace::Protocol::kTelnet,
                                   /*orig_data=*/true);
  stream::ColumnBulkOutlierSource clean(fused);
  EXPECT_EQ(clean.info().name, want.name());
  expect_same_records(collect_columns_as_trace(clean), want);
}

// --- Accumulators vs span statistics -----------------------------------

TEST(StreamAccumulators, VtAccumulatorBitIdenticalToSpanPlot) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> times = t.packet_times();
  const std::vector<double> counts =
      stats::bin_counts(times, t.t_begin(), t.t_end(), 0.1);
  const auto levels = stats::default_aggregation_levels(counts.size());

  const stats::VarianceTimePlot span =
      stats::variance_time_plot(counts, levels);
  stats::VtAccumulator acc(levels);
  for (double c : counts) acc.push(c);
  const stats::VarianceTimePlot streamed = acc.finish();

  EXPECT_EQ(streamed.base_mean, span.base_mean);
  ASSERT_EQ(streamed.points.size(), span.points.size());
  for (std::size_t i = 0; i < span.points.size(); ++i) {
    EXPECT_EQ(streamed.points[i].m, span.points[i].m);
    EXPECT_EQ(streamed.points[i].variance, span.points[i].variance);
    EXPECT_EQ(streamed.points[i].normalized, span.points[i].normalized);
    EXPECT_EQ(streamed.points[i].n_blocks, span.points[i].n_blocks);
  }
}

TEST(StreamAccumulators, BinCountsAccumulatorMatchesBatch) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> times = t.packet_times();
  const std::vector<double> want =
      stats::bin_counts(times, t.t_begin(), t.t_end(), 0.25);
  stats::BinCountsAccumulator acc(t.t_begin(), t.t_end(), 0.25);
  for (double x : times) acc.add(x);
  EXPECT_EQ(acc.counts(), want);
}

TEST(StreamAccumulators, BurstLullAccumulatorMatchesBatch) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> counts =
      stats::bin_counts(t.packet_times(), t.t_begin(), t.t_end(), 0.1);
  const stats::BurstLull want = stats::burst_lull_structure(counts);
  stats::BurstLullAccumulator acc;
  for (double c : counts) acc.push(c);
  const stats::BurstLull got = acc.finish();
  EXPECT_EQ(got.burst_lengths, want.burst_lengths);
  EXPECT_EQ(got.lull_lengths, want.lull_lengths);
}

// --- Streaming synthesizer ---------------------------------------------

TEST(StreamingSynth, MatchesBatchSynthesizerTcpOnly) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  const trace::PacketTrace batch = synth::synthesize_packet_trace(cfg);
  ASSERT_GT(batch.size(), 1000u);

  synth::StreamingPacketSynthesizer src(cfg, /*chunk_size=*/1000);
  EXPECT_EQ(src.info().name, batch.name());
  EXPECT_EQ(src.info().t_begin, batch.t_begin());
  EXPECT_EQ(src.info().t_end, batch.t_end());
  expect_same_records(stream::collect(src), batch);
}

TEST(StreamingSynth, MatchesBatchSynthesizerAllProtocols) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/false);
  const trace::PacketTrace batch = synth::synthesize_packet_trace(cfg);
  ASSERT_GT(batch.size(), 1000u);

  synth::StreamingPacketSynthesizer src(cfg);
  expect_same_records(stream::collect(src), batch);
}

TEST(StreamingSynth, ResetReplaysIdentically) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  synth::StreamingPacketSynthesizer src(cfg, /*chunk_size=*/512);
  const trace::PacketTrace first = stream::collect(src);
  src.reset();
  const trace::PacketTrace second = stream::collect(src);
  expect_same_records(second, first);
}

// --- End-to-end pipeline -----------------------------------------------

TEST(StreamPipeline, AnalyzeStreamMatchesAnalyzeBatchByteForByte) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.1;
  opt.protocol = trace::Protocol::kTelnet;
  opt.orig_data_only = true;
  opt.remove_outliers = true;

  synth::StreamingPacketSynthesizer src(cfg, /*chunk_size=*/2048);
  stream::ColumnsFromRows columns(src);
  const stream::PipelineResult streamed = stream::analyze_columns(columns, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);

  EXPECT_EQ(streamed.info.name, batch.info.name);
  EXPECT_EQ(streamed.packets, batch.packets);
  EXPECT_EQ(streamed.counts, batch.counts);
  EXPECT_EQ(streamed.vt.base_mean, batch.vt.base_mean);

  // The figure CSV is the artifact the acceptance criterion names:
  // byte-identical output from the two independent code paths.
  EXPECT_EQ(stream::vt_csv(streamed), stream::vt_csv(batch));
}

TEST(StreamPipeline, UnfilteredAggregateAlsoByteIdentical) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/false);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.5;

  synth::StreamingPacketSynthesizer src(cfg);
  stream::ColumnsFromRows columns(src);
  const stream::PipelineResult streamed = stream::analyze_columns(columns, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);
  EXPECT_EQ(stream::vt_csv(streamed), stream::vt_csv(batch));
  EXPECT_EQ(streamed.burst_lull.burst_lengths, batch.burst_lull.burst_lengths);
  EXPECT_EQ(streamed.burst_lull.lull_lengths, batch.burst_lull.lull_lengths);
  EXPECT_EQ(streamed.count_moments.mean(), batch.count_moments.mean());
  EXPECT_EQ(streamed.count_moments.variance_sample(),
            batch.count_moments.variance_sample());
}

TEST(StreamPipeline, TooShortSeriesThrows) {
  trace::PacketTrace t("tiny", 0.0, 1.0);
  trace::PacketRecord r;
  r.time = 0.5;
  t.add(r);
  stream::TraceChunkSource src(t);
  stream::ColumnsFromRows columns(src);
  stream::PipelineOptions opt;
  opt.bin = 0.5;  // 2 bins << 16
  EXPECT_THROW(stream::analyze_columns(columns, opt), std::invalid_argument);
}

}  // namespace
}  // namespace wan

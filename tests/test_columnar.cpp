// Columnar layout parity (ctest label `columnar`): the SoA chunk path
// must reproduce the row records and the batch analysis exactly —
// record for record through the adapters, bit for bit through the span
// accumulators, and byte for byte in the figure CSVs the pipeline
// emits — for synthesized traces and for an ingested capture fixture.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ingest/ingest.hpp"
#include "src/ingest/sources.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/columnar_filters.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

namespace wan {
namespace {

std::string fixture(const std::string& name) {
  return std::string(WAN_TEST_DATA_DIR) + "/" + name;
}

void expect_same_records(const std::vector<trace::PacketRecord>& got,
                         const std::vector<trace::PacketRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << "record " << i;
    ASSERT_EQ(got[i].protocol, want[i].protocol) << "record " << i;
    ASSERT_EQ(got[i].conn_id, want[i].conn_id) << "record " << i;
    ASSERT_EQ(got[i].from_originator, want[i].from_originator)
        << "record " << i;
    ASSERT_EQ(got[i].payload_bytes, want[i].payload_bytes) << "record " << i;
  }
}

// Drains a columnar source through the SoA->AoS bridge so parity checks
// compare flattened record sequences, not chunk boundaries.
std::vector<trace::PacketRecord> drain(stream::PacketColumnSource& src) {
  stream::RowsFromColumns rows(src);
  return stream::collect(rows).records();
}

// Same shape as test_stream's trace: several protocols, both
// directions, pure acks, and one bulk-outlier connection, so every
// selection predicate has matching and non-matching rows.
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
  for (int i = 0; i < 20; ++i)
    add(5.0 + i * 0.5, Protocol::kTelnet, 99, true, 100);  // bulk outlier
  t.sort_by_time();
  return t;
}

std::vector<trace::ConnRecord> make_conn_records() {
  std::vector<trace::ConnRecord> rows;
  for (int i = 0; i < 57; ++i) {
    trace::ConnRecord r;
    r.start = i * 3.1;
    r.duration = 0.5 + i;
    r.protocol = i % 2 ? trace::Protocol::kTelnet : trace::Protocol::kSmtp;
    r.src_host = 100 + i;
    r.dst_host = 200 + i;
    r.bytes_orig = 1000u + i;
    r.bytes_resp = 5u * i;
    r.session_id = 7000u + i;
    rows.push_back(r);
  }
  return rows;
}

// Minimal row-oriented conn source over a vector, for adapter tests.
class VectorConnSource final : public stream::ConnChunkSource {
 public:
  VectorConnSource(std::vector<trace::ConnRecord> rows, std::size_t chunk)
      : rows_(std::move(rows)), chunk_(chunk), info_{"conns", 0.0, 1.0} {}

  const stream::StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::ConnRecord>& chunk) override {
    chunk.clear();
    if (pos_ >= rows_.size()) return false;
    const std::size_t n = std::min(chunk_, rows_.size() - pos_);
    chunk.assign(rows_.begin() + pos_, rows_.begin() + pos_ + n);
    pos_ += n;
    return true;
  }
  void reset() override { pos_ = 0; }

 private:
  std::vector<trace::ConnRecord> rows_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
  stream::StreamInfo info_;
};

synth::PacketDatasetConfig small_pkt_config(bool tcp_only) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("columnar-test", tcp_only, /*seed=*/7);
  cfg.hours = 0.25;
  return cfg;
}

// --- AoS <-> SoA round trips --------------------------------------------

TEST(PacketColumns, RoundTripsEveryFieldAndRow) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());
  ASSERT_EQ(cols.size(), t.size());

  // Per-row view.
  for (std::size_t i = 0; i < t.size(); ++i) {
    const trace::PacketRecord r = cols.row(i);
    const trace::PacketRecord& w = t.records()[i];
    ASSERT_EQ(r.time, w.time);
    ASSERT_EQ(r.protocol, w.protocol);
    ASSERT_EQ(r.conn_id, w.conn_id);
    ASSERT_EQ(r.from_originator, w.from_originator);
    ASSERT_EQ(r.payload_bytes, w.payload_bytes);
  }

  // Bulk transpose back.
  std::vector<trace::PacketRecord> back;
  cols.to_rows(back);
  expect_same_records(back, t.records());

  // The layout's reason to exist: fewer bytes per row than the padded
  // record, and byte_size reports the padding-free footprint.
  EXPECT_LT(stream::PacketColumns::kPacketColumnBytes,
            stream::PacketColumns::kPacketRowBytes);
  EXPECT_EQ(cols.byte_size(),
            cols.size() * stream::PacketColumns::kPacketColumnBytes);
}

TEST(ConnColumns, RoundTripsEveryFieldAndRow) {
  const std::vector<trace::ConnRecord> rows = make_conn_records();
  const stream::ConnColumns cols = stream::to_conn_columns(rows);
  ASSERT_EQ(cols.size(), rows.size());

  std::vector<trace::ConnRecord> back;
  cols.to_rows(back);
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(back[i].start, rows[i].start);
    ASSERT_EQ(back[i].duration, rows[i].duration);
    ASSERT_EQ(back[i].protocol, rows[i].protocol);
    ASSERT_EQ(back[i].src_host, rows[i].src_host);
    ASSERT_EQ(back[i].dst_host, rows[i].dst_host);
    ASSERT_EQ(back[i].bytes_orig, rows[i].bytes_orig);
    ASSERT_EQ(back[i].bytes_resp, rows[i].bytes_resp);
    ASSERT_EQ(back[i].session_id, rows[i].session_id);
  }
  EXPECT_LT(stream::ConnColumns::kConnColumnBytes,
            stream::ConnColumns::kConnRowBytes);
}

// --- Adapters across chunk boundaries -----------------------------------

TEST(ColumnarAdapters, PacketRoundTripAcrossOddChunksWithReset) {
  const trace::PacketTrace t = make_test_trace();
  // Chunk size deliberately not a divisor of the record count.
  stream::TraceChunkSource rows(t, /*chunk_size=*/7);
  stream::ColumnsFromRows cols(rows);
  EXPECT_EQ(cols.info().name, t.name());
  expect_same_records(drain(cols), t.records());

  cols.reset();
  expect_same_records(drain(cols), t.records());
}

TEST(ColumnarAdapters, ConnRoundTripAcrossOddChunksWithReset) {
  const std::vector<trace::ConnRecord> rows = make_conn_records();
  VectorConnSource src(rows, /*chunk=*/11);
  stream::ConnColumnsFromRows cols(src);
  stream::ConnRowsFromColumns back(cols);

  for (int pass = 0; pass < 2; ++pass) {
    std::vector<trace::ConnRecord> got, chunk;
    while (back.next(chunk))
      got.insert(got.end(), chunk.begin(), chunk.end());
    ASSERT_EQ(got.size(), rows.size()) << "pass " << pass;
    for (std::size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(got[i].session_id, rows[i].session_id) << "row " << i;
    back.reset();
  }
}

TEST(ColumnarAdapters, ColumnTableSourceSlicesTheWholeTable) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns table = stream::to_columns(t.records());
  stream::ColumnTableSource src(
      table, {t.name(), t.t_begin(), t.t_end()}, /*chunk_size=*/13);
  expect_same_records(drain(src), t.records());
  src.reset();
  expect_same_records(drain(src), t.records());
}

// --- Selection-vector kernels vs batch filters --------------------------

TEST(ColumnarKernels, SelectEqualGatherMatchesBatchProtocolFilter) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());
  std::vector<std::uint32_t> sel;
  stream::select_equal(cols.protocol, trace::Protocol::kTelnet, sel);
  stream::PacketColumns out;
  stream::gather(cols, sel, out);
  std::vector<trace::PacketRecord> got;
  out.to_rows(got);
  expect_same_records(got, t.filter(trace::Protocol::kTelnet).records());
}

TEST(ColumnarKernels, SelectOrigDataMatchesBatchOriginatorFilter) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());
  std::vector<std::uint32_t> sel;
  stream::select_orig_data(cols, sel);
  stream::PacketColumns out;
  stream::gather(cols, sel, out);
  std::vector<trace::PacketRecord> got;
  out.to_rows(got);
  expect_same_records(got, t.originator_data_packets().records());
}

TEST(ColumnarKernels, FusedSelectEqualsSelectThenRefine) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());

  std::vector<std::uint32_t> fused;
  stream::select_protocol_orig_data(cols, trace::Protocol::kTelnet, fused);

  std::vector<std::uint32_t> staged;
  stream::select_equal(cols.protocol, trace::Protocol::kTelnet, staged);
  stream::refine_orig_data(cols, staged);

  EXPECT_EQ(fused, staged);
  ASSERT_FALSE(fused.empty());
  ASSERT_LT(fused.size(), cols.size());  // the predicate actually filters
}

// The columnar filter sources are pinned against the batch PacketTrace
// filters in test_stream.cpp (StreamFilters).

// --- Span accumulator forms vs per-element forms ------------------------

TEST(SpanAccumulators, BinCountsSpanBitIdenticalIncludingEdges) {
  const double t0 = 2.0, t1 = 12.0, bin = 0.7;
  // Every edge the scalar predicate distinguishes: below range, exactly
  // t0, interior, exactly on a bin edge, just under t1, exactly t1
  // (excluded), above range.
  std::vector<double> times = {1.9, 2.0,  2.69, 2.7,  5.3,
                               t1 - 1e-9, 12.0, 13.5, 2.0};
  for (int i = 0; i < 1000; ++i)
    times.push_back(t0 + 0.01 * static_cast<double>(i));

  stats::BinCountsAccumulator scalar(t0, t1, bin);
  for (double t : times) scalar.add(t);

  stats::BinCountsAccumulator spanned(t0, t1, bin);
  spanned.add(std::span<const double>(times));

  EXPECT_EQ(spanned.counts(), scalar.counts());
  EXPECT_EQ(stats::bin_counts(times, t0, t1, bin), scalar.counts());
}

TEST(SpanAccumulators, BinCountsSpanMatchesAcrossChunkSplits) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> times = t.packet_times();
  stats::BinCountsAccumulator scalar(t.t_begin(), t.t_end(), 0.25);
  for (double x : times) scalar.add(x);

  stats::BinCountsAccumulator chunked(t.t_begin(), t.t_end(), 0.25);
  std::span<const double> rest(times);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(37, rest.size());
    chunked.add(rest.subspan(0, n));
    rest = rest.subspan(n);
  }
  EXPECT_EQ(chunked.counts(), scalar.counts());
}

TEST(SpanAccumulators, VtMomentsBurstLullSpanFormsBitIdentical) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> counts =
      stats::bin_counts(t.packet_times(), t.t_begin(), t.t_end(), 0.1);
  const auto levels = stats::default_aggregation_levels(counts.size());

  stats::VtAccumulator vt_scalar(levels), vt_span(levels);
  stats::MomentAccumulator mo_scalar, mo_span;
  stats::BurstLullAccumulator bl_scalar, bl_span;
  for (double c : counts) {
    vt_scalar.push(c);
    mo_scalar.push(c);
    bl_scalar.push(c);
  }
  vt_span.push(std::span<const double>(counts));
  mo_span.push(std::span<const double>(counts));
  bl_span.push(std::span<const double>(counts));

  const stats::VarianceTimePlot a = vt_scalar.finish(), b = vt_span.finish();
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.base_mean, b.base_mean);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].variance, b.points[i].variance);
    EXPECT_EQ(a.points[i].normalized, b.points[i].normalized);
  }
  EXPECT_EQ(mo_scalar.mean(), mo_span.mean());
  EXPECT_EQ(mo_scalar.variance_sample(), mo_span.variance_sample());
  EXPECT_EQ(bl_scalar.finish().burst_lengths, bl_span.finish().burst_lengths);
  EXPECT_EQ(bl_scalar.finish().lull_lengths, bl_span.finish().lull_lengths);
}

TEST(SpanAccumulators, InterarrivalAccumulatorBridgesChunkBoundaries) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> times = t.packet_times();
  const std::vector<double> want = stats::interarrivals(times);

  stats::InterarrivalAccumulator acc;
  std::span<const double> rest(times);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(23, rest.size());
    acc.push_times(rest.subspan(0, n));
    rest = rest.subspan(n);
  }
  EXPECT_EQ(acc.gaps(), want);
}

// --- End-to-end pipeline parity -----------------------------------------

TEST(ColumnarPipeline, FilteredAnalysisByteIdenticalToBatch) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.1;
  opt.protocol = trace::Protocol::kTelnet;
  opt.orig_data_only = true;
  opt.remove_outliers = true;

  synth::StreamingPacketSynthesizer src(cfg, /*chunk_size=*/2048);
  stream::ColumnsFromRows columns(src);
  const stream::PipelineResult columnar = stream::analyze_columns(columns, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);

  EXPECT_EQ(stream::vt_csv(columnar), stream::vt_csv(batch));
  EXPECT_EQ(columnar.packets, batch.packets);
  EXPECT_EQ(columnar.counts, batch.counts);
}

TEST(ColumnarPipeline, UnfilteredAnalysisByteIdenticalToBatch) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/false);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.5;

  synth::StreamingPacketSynthesizer src(cfg);
  stream::ColumnsFromRows columns(src);
  const stream::PipelineResult columnar = stream::analyze_columns(columns, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);

  EXPECT_EQ(stream::vt_csv(columnar), stream::vt_csv(batch));
  EXPECT_EQ(columnar.burst_lull.burst_lengths, batch.burst_lull.burst_lengths);
  EXPECT_EQ(columnar.burst_lull.lull_lengths, batch.burst_lull.lull_lengths);
  EXPECT_EQ(columnar.count_moments.mean(), batch.count_moments.mean());
  EXPECT_EQ(columnar.count_moments.variance_sample(),
            batch.count_moments.variance_sample());
}

TEST(ColumnarPipeline, IngestedPcapFixtureByteIdenticalToBatch) {
  // The capture fixture exercises the real ingestion front end (pcap
  // decode + flow reconstruction, straight into columns) against the
  // batch analysis of the same records.
  ingest::PcapColumnSource src(fixture("tiny_le.pcap"),
                               ingest::ParseMode::kStrict);
  stream::PipelineOptions opt;
  opt.bin = 0.1;  // the ~5 s fixture span comfortably exceeds 16 bins

  const stream::PipelineResult columnar = stream::analyze_columns(src, opt);
  src.reset();
  stream::RowsFromColumns rows(src);
  const stream::PipelineResult batch =
      stream::analyze_batch(stream::collect(rows), opt);

  ASSERT_GT(columnar.packets, 0u);
  EXPECT_EQ(columnar.packets, batch.packets);
  EXPECT_EQ(columnar.counts, batch.counts);
  EXPECT_EQ(stream::vt_csv(columnar), stream::vt_csv(batch));
}

}  // namespace
}  // namespace wan

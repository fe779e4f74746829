// Chunk-source adapters: each ingest reader exposed through the
// streaming layer's pull contract, so real captures flow through the
// same src/stream pipeline as synthesized traces, in chunk-bounded
// memory.
//
// Sources are two-pass: the constructor prescans the file once to learn
// the trace's time range (analyze_columns reads info() before any
// records flow), then rewinds. The prescan's ledger is discarded on the
// rewind — stats() reflects the emission pass only, so callers see each
// defect counted exactly once. PcapColumnSource alone can defer the
// prescan (Prescan::kDeferred) for analyze_pcap_onepass.
//
//   * PacketSourceImpl<MmapPcapReader / LblPktReader> — packets
//     through the flow table (connection ids + protocol classification
//     attached), emitted as PacketRecord chunks.
//   * PcapColumnSource — the zero-copy fast path: mmap'd batch decode
//     folded straight into PacketColumns, no PacketRecord row chunk in
//     between. ColumnsFromIngest adapts any row source to the same
//     contract for the configurations without a native columnar path.
//   * FlowConnSource<...> — the same packets folded *into* connections:
//     emits the ConnRecords the flow table closes, in closure order,
//     flushing still-open flows at EOF.
//   * LblConnSource — SYN/FIN connection logs read directly.
//
// Every pcap source reads through MmapPcapReader, whose byte source is
// picked from the input: a mapping for a regular file, the pread
// BufferedByteSource otherwise (stdin and any other non-regular input,
// such as a named FIFO, are first spooled to a temp file).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest_stats.hpp"
#include "src/ingest/mmap_source.hpp"
#include "src/ingest/ita_ascii.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/conn_chunk.hpp"

namespace wan::ingest {

/// Packet chunk source that also carries an ingest error ledger.
class IngestPacketSource : public stream::PacketChunkSource {
 public:
  virtual const IngestStats& stats() const = 0;
};

/// Connection chunk source that also carries an ingest error ledger.
class IngestConnSource : public stream::ConnChunkSource {
 public:
  virtual const IngestStats& stats() const = 0;
};

/// Columnar packet source that also carries an ingest error ledger.
class IngestColumnSource : public stream::PacketColumnSource {
 public:
  virtual const IngestStats& stats() const = 0;
};

/// Packets from a capture file, each folded through a flow table so the
/// emitted PacketRecords carry conn ids and port-classified protocols.
/// Reader is MmapPcapReader or LblPktReader.
template <typename Reader>
class PacketSourceImpl final : public IngestPacketSource {
 public:
  /// Opens and prescans `path`. Strict mode throws IngestError on the
  /// first structural defect (possibly from the prescan); lenient mode
  /// never throws past the initial open.
  PacketSourceImpl(const std::string& path, ParseMode mode,
                   FlowTableConfig flow = {},
                   std::size_t chunk_size = stream::kDefaultChunkSize);

  const stream::StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }

 private:
  Reader reader_;
  FlowTable table_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
};

using MmapPcapPacketSource = PacketSourceImpl<MmapPcapReader>;
using LblPktPacketSource = PacketSourceImpl<LblPktReader>;

/// Whether a source's constructor runs the prescan pass (the default)
/// or defers it for the speculative single-pass analysis.
enum class Prescan {
  kEager,
  /// Skip the constructor's prescan: info() carries the right name but
  /// a zero time range until ensure_eager_info() runs, so the standard
  /// pipelines reject a deferred source loudly ("series too short")
  /// instead of analyzing a wrong grid. Only analyze_pcap_onepass
  /// consumes deferred sources: it learns the range from the emission
  /// pass itself and never reads the deferred info's t_begin/t_end.
  kDeferred,
};

/// The zero-copy fast path end to end: mmap'd pcap records batch-decode
/// in place and fold through the flat FlowTable straight into SoA
/// columns — no PacketRecord row chunk is ever materialized. Emits the
/// exact rows PacketSourceImpl would (pinned by the parity tests);
/// analyze_columns drains it without the ColumnsFromRows transpose.
class PcapColumnSource final : public IngestColumnSource {
 public:
  PcapColumnSource(const std::string& path, ParseMode mode,
                   FlowTableConfig flow = {},
                   std::size_t chunk_size = stream::kDefaultChunkSize,
                   Prescan prescan = Prescan::kEager);

  const stream::StreamInfo& info() const override { return info_; }
  bool next(stream::PacketColumns& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }

  /// True until a deferred prescan has been replaced by a real one.
  bool info_deferred() const { return deferred_; }
  /// Runs the prescan a deferred constructor skipped (and rewinds), so
  /// info() becomes exactly what the eager constructor would have
  /// produced. The single-pass analysis calls this when its in-order
  /// speculation fails and it falls back to the two-pass path. No-op
  /// when info is already eager.
  void ensure_eager_info();

  /// Speculation support, valid while info is deferred: the time of the
  /// first packet emitted since construction/reset (t_begin, if the
  /// stream turns out to be in order), and whether any packet emitted.
  bool any_emitted() const { return first_time_set_; }
  double first_emitted_time() const { return first_time_; }
  /// The max emitted timestamp so far (exact once the source drains).
  double emitted_max_time() const { return reader_.max_time_seen(); }
  /// One timestamp quantum, for t_end = max + tick at end of stream —
  /// the same tick the eager prescan adds.
  double tick() const { return reader_.tick(); }

 private:
  MmapPcapReader reader_;
  FlowTable table_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
  bool deferred_ = false;
  bool first_time_set_ = false;
  double first_time_ = 0.0;
  std::string path_;  ///< kept only for a deferred ensure_eager_info()
};

/// Owning rows->columns bridge: any IngestPacketSource behind the
/// columnar ledger contract, for lbl-pkt, which has no native columnar
/// decode.
class ColumnsFromIngest final : public IngestColumnSource {
 public:
  explicit ColumnsFromIngest(std::unique_ptr<IngestPacketSource> inner)
      : inner_(std::move(inner)) {}

  const stream::StreamInfo& info() const override { return inner_->info(); }
  bool next(stream::PacketColumns& chunk) override;
  void reset() override { inner_->reset(); }

  const IngestStats& stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<IngestPacketSource> inner_;
  std::vector<trace::PacketRecord> buf_;
};

/// The same packet formats reduced to SYN/FIN-style connection records:
/// chunks hold the connections the flow table closed, in closure order;
/// at end of input every still-open flow is flushed. collect_conns +
/// sort_by_start yields a ConnTrace ready for the Section-III analyses.
template <typename Reader>
class FlowConnSource final : public IngestConnSource {
 public:
  FlowConnSource(const std::string& path, ParseMode mode,
                 FlowTableConfig flow = {},
                 std::size_t chunk_size = stream::kDefaultChunkSize);

  const stream::StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::ConnRecord>& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }

 private:
  Reader reader_;
  FlowTable table_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
  std::vector<trace::ConnRecord> pending_;
  std::size_t pos_ = 0;
  bool flushed_ = false;
};

using MmapPcapConnSource = FlowConnSource<MmapPcapReader>;
using LblPktConnSource = FlowConnSource<LblPktReader>;

/// lbl-conn-7 connection logs, streamed directly (no reconstruction —
/// the archive already reduced them to SYN/FIN records).
class LblConnSource final : public IngestConnSource {
 public:
  LblConnSource(const std::string& path, ParseMode mode,
                std::size_t chunk_size = stream::kDefaultChunkSize);

  const stream::StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::ConnRecord>& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }

 private:
  LblConnReader reader_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
};

}  // namespace wan::ingest

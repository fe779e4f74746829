// Columnar (struct-of-arrays) twin of the row chunk contract: a
// PacketColumns chunk holds each record field as its own
// contiguous column, so an analysis pass that reads one or two fields
// (binning reads times, protocol filtering reads protocol bytes) walks
// only those bytes — no full-record cache lines, no per-record padding,
// and the per-column loops auto-vectorize.
//
// The source contract mirrors chunk.hpp exactly: next() clears then
// fills up to the chunk size, false means exhausted, rows arrive in the
// order a batch construction would hold them, reset() rewinds to an
// identical sequence. Row-oriented readers (binary/CSV files, the
// streaming synthesizer, ingest) feed this path unchanged through the
// ColumnsFromRows adapter; RowsFromColumns is the reverse bridge, which
// is how the parity tests compare the two layouts record for record.
//
// Memory: a PacketRecord is 24 bytes after padding; its columns sum to
// 16 bytes per row. kPacketRowBytes / kPacketColumnBytes make the win
// checkable in benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/stream/chunk.hpp"
#include "src/trace/packet_trace.hpp"
#include "src/trace/records.hpp"

namespace wan::stream {

/// Column-per-field layout of a PacketRecord sequence. Row i is
/// (time[i], protocol[i], conn_id[i], from_originator[i],
/// payload_bytes[i]); all columns always have equal length.
struct PacketColumns {
  std::vector<double> time;
  std::vector<trace::Protocol> protocol;
  std::vector<std::uint32_t> conn_id;
  /// 0/1 instead of bool: std::vector<bool> is a bitset whose proxy
  /// iterators block auto-vectorization of selection loops.
  std::vector<std::uint8_t> from_originator;
  std::vector<std::uint16_t> payload_bytes;

  std::size_t size() const { return time.size(); }
  bool empty() const { return time.empty(); }
  void clear();
  void reserve(std::size_t n);

  /// Inline: this is the fused ingest path's per-packet append, and the
  /// five capacity checks predict perfectly after a reserve().
  void push_back(const trace::PacketRecord& r) {
    time.push_back(r.time);
    protocol.push_back(r.protocol);
    conn_id.push_back(r.conn_id);
    from_originator.push_back(r.from_originator ? 1 : 0);
    payload_bytes.push_back(r.payload_bytes);
  }
  void append_rows(std::span<const trace::PacketRecord> rows);

  /// Row i reassembled as a record (the AoS view of one row).
  trace::PacketRecord row(std::size_t i) const;
  /// Appends every row, in order, to out.
  void to_rows(std::vector<trace::PacketRecord>& out) const;

  /// Heap bytes of the column payloads at the current size — the
  /// padding-free footprint benches compare against rows.
  std::size_t byte_size() const { return size() * kPacketColumnBytes; }

  static constexpr std::size_t kPacketRowBytes = sizeof(trace::PacketRecord);
  static constexpr std::size_t kPacketColumnBytes =
      sizeof(double) + sizeof(trace::Protocol) + sizeof(std::uint32_t) +
      sizeof(std::uint8_t) + sizeof(std::uint16_t);
};

/// Whole-sequence transpose (AoS -> SoA).
PacketColumns to_columns(std::span<const trace::PacketRecord> rows);

/// Pull source of packet rows in columnar chunks; the contract of
/// PacketChunkSource::next / reset, chunk type aside.
class PacketColumnSource {
 public:
  virtual ~PacketColumnSource() = default;

  virtual const StreamInfo& info() const = 0;

  /// Chunk contract of PacketChunkSource::next, for PacketColumns.
  virtual bool next(PacketColumns& chunk) = 0;

  /// Rewinds to the first row.
  virtual void reset() = 0;
};

/// AoS -> SoA adapter: any row-oriented reader (file sources, the
/// streaming synthesizer, ingest) becomes a columnar source. One row
/// chunk transposes into one column chunk, so chunk sizing and ordering
/// are exactly the upstream's. Non-owning, like the filter sources.
class ColumnsFromRows final : public PacketColumnSource {
 public:
  explicit ColumnsFromRows(PacketChunkSource& inner) : inner_(&inner) {}

  const StreamInfo& info() const override { return inner_->info(); }
  bool next(PacketColumns& chunk) override;
  void reset() override { inner_->reset(); }

 private:
  PacketChunkSource* inner_;
  std::vector<trace::PacketRecord> buf_;
};

/// SoA -> AoS adapter: a columnar source viewed through the row
/// contract, so row-oriented consumers (collect, the batch analysis,
/// parity tests) can drain columnar pipelines.
class RowsFromColumns final : public PacketChunkSource {
 public:
  explicit RowsFromColumns(PacketColumnSource& inner) : inner_(&inner) {}

  const StreamInfo& info() const override { return inner_->info(); }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override { inner_->reset(); }

 private:
  PacketColumnSource* inner_;
  PacketColumns buf_;
};

/// Native columnar store source: serves chunk-size slices of an
/// in-memory column table (non-owning, like TraceChunkSource). This is
/// the "columnar trace store" end state — data that already lives as
/// columns streams into analysis with zero transposition.
class ColumnTableSource final : public PacketColumnSource {
 public:
  ColumnTableSource(const PacketColumns& table, StreamInfo info,
                    std::size_t chunk_size = kDefaultChunkSize)
      : table_(&table), info_(std::move(info)), chunk_size_(chunk_size) {}

  const StreamInfo& info() const override { return info_; }
  bool next(PacketColumns& chunk) override;
  void reset() override { pos_ = 0; }

 private:
  const PacketColumns* table_;
  StreamInfo info_;
  std::size_t pos_ = 0;
  std::size_t chunk_size_;
};

/// Drains a columnar source into one PacketColumns table.
PacketColumns collect_columns(PacketColumnSource& source);

// --- Selection-vector kernels -------------------------------------------
//
// Filtering a columnar chunk is a two-phase pass: a tight loop over one
// (or two) columns appends matching row indices to a selection vector,
// then gather() copies the selected rows column by column. Both loops
// touch only contiguous primitive arrays, so they vectorize — there is
// no per-record predicate call anywhere.

/// Appends to sel the indices i (offset not applied) where col[i] == value.
void select_equal(std::span<const trace::Protocol> col, trace::Protocol value,
                  std::vector<std::uint32_t>& sel);

/// Appends the indices of originator-side rows carrying user data —
/// the Section-IV originator_data_packets predicate, columnar.
void select_orig_data(const PacketColumns& cols,
                      std::vector<std::uint32_t>& sel);

/// Appends the indices matching protocol == value AND the
/// originator-data predicate, in one compaction pass over the three
/// narrow columns — the fused form of select_equal + refine_orig_data
/// for the common stacked-filter case.
void select_protocol_orig_data(const PacketColumns& cols,
                               trace::Protocol value,
                               std::vector<std::uint32_t>& sel);

/// Compacts sel in place to the selected rows that also carry
/// originator user data. Predicates compose on the selection vector —
/// stacked filters refine one sel and gather once, instead of
/// materializing an intermediate chunk per filter.
void refine_orig_data(const PacketColumns& cols,
                      std::vector<std::uint32_t>& sel);

/// Copies the selected rows of `in` into `out` (cleared first), column
/// by column. Indices must be < in.size().
void gather(const PacketColumns& in, std::span<const std::uint32_t> sel,
            PacketColumns& out);

}  // namespace wan::stream

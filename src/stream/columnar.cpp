#include "src/stream/columnar.hpp"

#include <algorithm>

namespace wan::stream {

void PacketColumns::clear() {
  time.clear();
  protocol.clear();
  conn_id.clear();
  from_originator.clear();
  payload_bytes.clear();
}

void PacketColumns::reserve(std::size_t n) {
  time.reserve(n);
  protocol.reserve(n);
  conn_id.reserve(n);
  from_originator.reserve(n);
  payload_bytes.reserve(n);
}

void PacketColumns::append_rows(std::span<const trace::PacketRecord> rows) {
  const std::size_t base = size();
  const std::size_t n = rows.size();
  time.resize(base + n);
  protocol.resize(base + n);
  conn_id.resize(base + n);
  from_originator.resize(base + n);
  payload_bytes.resize(base + n);
  // One output column per loop: each pass reads the row array once and
  // writes one contiguous column.
  for (std::size_t i = 0; i < n; ++i) time[base + i] = rows[i].time;
  for (std::size_t i = 0; i < n; ++i) protocol[base + i] = rows[i].protocol;
  for (std::size_t i = 0; i < n; ++i) conn_id[base + i] = rows[i].conn_id;
  for (std::size_t i = 0; i < n; ++i)
    from_originator[base + i] = rows[i].from_originator ? 1 : 0;
  for (std::size_t i = 0; i < n; ++i)
    payload_bytes[base + i] = rows[i].payload_bytes;
}

trace::PacketRecord PacketColumns::row(std::size_t i) const {
  trace::PacketRecord r;
  r.time = time[i];
  r.protocol = protocol[i];
  r.conn_id = conn_id[i];
  r.from_originator = from_originator[i] != 0;
  r.payload_bytes = payload_bytes[i];
  return r;
}

void PacketColumns::to_rows(std::vector<trace::PacketRecord>& out) const {
  const std::size_t base = out.size();
  out.resize(base + size());
  for (std::size_t i = 0; i < size(); ++i) out[base + i] = row(i);
}

PacketColumns to_columns(std::span<const trace::PacketRecord> rows) {
  PacketColumns cols;
  cols.append_rows(rows);
  return cols;
}

bool ColumnsFromRows::next(PacketColumns& chunk) {
  chunk.clear();
  if (!inner_->next(buf_)) return false;
  chunk.append_rows(buf_);
  return true;
}

bool RowsFromColumns::next(std::vector<trace::PacketRecord>& chunk) {
  chunk.clear();
  if (!inner_->next(buf_)) return false;
  buf_.to_rows(chunk);
  return true;
}

bool ColumnTableSource::next(PacketColumns& chunk) {
  chunk.clear();
  const std::size_t n = table_->size();
  if (pos_ >= n) return false;
  const std::size_t take = std::min(chunk_size_, n - pos_);
  const std::size_t end = pos_ + take;
  chunk.time.assign(table_->time.begin() + pos_, table_->time.begin() + end);
  chunk.protocol.assign(table_->protocol.begin() + pos_,
                        table_->protocol.begin() + end);
  chunk.conn_id.assign(table_->conn_id.begin() + pos_,
                       table_->conn_id.begin() + end);
  chunk.from_originator.assign(table_->from_originator.begin() + pos_,
                               table_->from_originator.begin() + end);
  chunk.payload_bytes.assign(table_->payload_bytes.begin() + pos_,
                             table_->payload_bytes.begin() + end);
  pos_ = end;
  return true;
}

PacketColumns collect_columns(PacketColumnSource& source) {
  PacketColumns all;
  PacketColumns chunk;
  while (source.next(chunk)) {
    all.time.insert(all.time.end(), chunk.time.begin(), chunk.time.end());
    all.protocol.insert(all.protocol.end(), chunk.protocol.begin(),
                        chunk.protocol.end());
    all.conn_id.insert(all.conn_id.end(), chunk.conn_id.begin(),
                       chunk.conn_id.end());
    all.from_originator.insert(all.from_originator.end(),
                               chunk.from_originator.begin(),
                               chunk.from_originator.end());
    all.payload_bytes.insert(all.payload_bytes.end(),
                             chunk.payload_bytes.begin(),
                             chunk.payload_bytes.end());
  }
  return all;
}

namespace {

// Scratch for the two-phase selects below. Thread-local so concurrent
// sources never share it; it holds one byte per row of the largest
// chunk seen on this thread.
std::vector<std::uint8_t>& match_scratch(std::size_t n) {
  static thread_local std::vector<std::uint8_t> m;
  m.resize(n);
  return m;
}

// Phase 2 of every select: branchless compaction of the 0/1 match
// bytes into row indices. The cursor carries a loop dependency, so this
// part cannot vectorize — which is exactly why the predicate evaluation
// is split out into its own (vectorizable) pass over the columns.
void compact_matches(const std::uint8_t* m, std::size_t n,
                     std::vector<std::uint32_t>& sel) {
  const std::size_t base = sel.size();
  sel.resize(base + n);
  std::uint32_t* s = sel.data();
  std::size_t k = base;
  for (std::size_t i = 0; i < n; ++i) {
    s[k] = static_cast<std::uint32_t>(i);
    k += m[i];
  }
  sel.resize(k);
}

}  // namespace

void select_equal(std::span<const trace::Protocol> col, trace::Protocol value,
                  std::vector<std::uint32_t>& sel) {
  const std::size_t n = col.size();
  std::uint8_t* m = match_scratch(n).data();
  for (std::size_t i = 0; i < n; ++i) m[i] = col[i] == value;
  compact_matches(m, n, sel);
}

void select_orig_data(const PacketColumns& cols,
                      std::vector<std::uint32_t>& sel) {
  const std::size_t n = cols.size();
  const std::uint8_t* orig = cols.from_originator.data();
  const std::uint16_t* payload = cols.payload_bytes.data();
  std::uint8_t* m = match_scratch(n).data();
  for (std::size_t i = 0; i < n; ++i)
    m[i] = (orig[i] != 0) & (payload[i] > 0);
  compact_matches(m, n, sel);
}

void select_protocol_orig_data(const PacketColumns& cols,
                               trace::Protocol value,
                               std::vector<std::uint32_t>& sel) {
  const std::size_t n = cols.size();
  const trace::Protocol* proto = cols.protocol.data();
  const std::uint8_t* orig = cols.from_originator.data();
  const std::uint16_t* payload = cols.payload_bytes.data();
  std::uint8_t* m = match_scratch(n).data();
  // The conjunction of select_equal and the originator-data predicate
  // in one pass over the three narrow columns, without writing and
  // re-reading an intermediate selection.
  for (std::size_t i = 0; i < n; ++i)
    m[i] = (proto[i] == value) & (orig[i] != 0) & (payload[i] > 0);
  compact_matches(m, n, sel);
}

void refine_orig_data(const PacketColumns& cols,
                      std::vector<std::uint32_t>& sel) {
  const std::uint8_t* orig = cols.from_originator.data();
  const std::uint16_t* payload = cols.payload_bytes.data();
  std::size_t k = 0;
  for (std::size_t j = 0; j < sel.size(); ++j) {
    const std::uint32_t i = sel[j];
    sel[k] = i;
    k += (orig[i] != 0) & (payload[i] > 0) ? 1 : 0;
  }
  sel.resize(k);
}

namespace {

// Gathers one column: out[j] = in[sel[j]].
template <typename T>
void gather_column(const std::vector<T>& in,
                   std::span<const std::uint32_t> sel, std::vector<T>& out) {
  out.resize(sel.size());
  for (std::size_t j = 0; j < sel.size(); ++j) out[j] = in[sel[j]];
}

}  // namespace

void gather(const PacketColumns& in, std::span<const std::uint32_t> sel,
            PacketColumns& out) {
  gather_column(in.time, sel, out.time);
  gather_column(in.protocol, sel, out.protocol);
  gather_column(in.conn_id, sel, out.conn_id);
  gather_column(in.from_originator, sel, out.from_originator);
  gather_column(in.payload_bytes, sel, out.payload_bytes);
}

}  // namespace wan::stream

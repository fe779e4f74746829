// Zero-copy ingest fast-path pins (DESIGN.md §13): the mmap'd reader
// against its buffered fallback, the flat open-addressing flow table
// against a small std::map reference table defined here, the direct
// columnar decode against the row source, and the one-pass analysis
// against the eager two-pass path and the batch oracle — on the
// committed fixtures and on synthetic eviction/reincarnation
// scenarios. The fast path is only allowed to be faster — never
// different.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/ingest/classify.hpp"
#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest.hpp"
#include "src/ingest/mmap_source.hpp"
#include "src/ingest/onepass.hpp"
#include "src/stream/pipeline.hpp"

using namespace wan;
using ingest::IngestError;
using ingest::ParseMode;
using ingest::RawPacket;

namespace {

std::string fixture(const std::string& name) {
  return std::string(WAN_TEST_DATA_DIR) + "/" + name;
}

bool same_raw(const std::vector<RawPacket>& a,
              const std::vector<RawPacket>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].src_ip != b[i].src_ip ||
        a[i].dst_ip != b[i].dst_ip || a[i].src_port != b[i].src_port ||
        a[i].dst_port != b[i].dst_port || a[i].tcp != b[i].tcp ||
        a[i].tcp_flags != b[i].tcp_flags ||
        a[i].payload_bytes != b[i].payload_bytes ||
        a[i].multicast != b[i].multicast)
      return false;
  }
  return true;
}

void expect_same_stats(const ingest::IngestStats& a,
                       const ingest::IngestStats& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.bad_headers, b.bad_headers);
  EXPECT_EQ(a.truncated_records, b.truncated_records);
  EXPECT_EQ(a.oversized_records, b.oversized_records);
  EXPECT_EQ(a.bad_lines, b.bad_lines);
  EXPECT_EQ(a.out_of_order, b.out_of_order);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.skipped_frames, b.skipped_frames);
  EXPECT_EQ(a.vlan_frames, b.vlan_frames);
  EXPECT_EQ(a.short_captures, b.short_captures);
  EXPECT_EQ(a.unknown_transports, b.unknown_transports);
  EXPECT_EQ(a.unknown_protocols, b.unknown_protocols);
  EXPECT_EQ(a.missing_fields, b.missing_fields);
}

template <typename Reader>
std::vector<RawPacket> drain(Reader& reader) {
  std::vector<RawPacket> pkts;
  RawPacket pkt;
  while (reader.next(pkt)) pkts.push_back(pkt);
  return pkts;
}

// Every committed pcap fixture: endian/precision variants, mid-file
// damage, an unusable header. Byte-parity must hold on all of them.
const char* const kPcapFixtures[] = {"tiny_le.pcap", "tiny_be.pcap",
                                     "tiny_nsec.pcap", "tiny_ooo.pcap",
                                     "tiny_vlan.pcap", "trunc.pcap",
                                     "badmagic.pcap"};

// ------------------------------------------- mapped == buffered bytes

TEST(MmapPcapReader, BufferedFallbackMatchesTheMapping) {
  // Force the sliding-buffer fallback onto a mappable file: same
  // records, same ledger — the reader cannot tell its sources apart.
  for (const char* name : kPcapFixtures) {
    SCOPED_TRACE(name);
    ingest::MmapPcapReader mapped(fixture(name), ParseMode::kLenient);
    ingest::MmapPcapReader buffered(
        std::make_unique<ingest::BufferedByteSource>(fixture(name)),
        fixture(name), ParseMode::kLenient);
    EXPECT_EQ(mapped.header_ok(), buffered.header_ok());
    EXPECT_EQ(mapped.tick(), buffered.tick());
    if (mapped.header_ok()) {
      EXPECT_EQ(mapped.linktype(), buffered.linktype());
    }
    EXPECT_TRUE(same_raw(drain(mapped), drain(buffered)));
    expect_same_stats(mapped.stats(), buffered.stats());
  }
}

TEST(MmapPcapReader, NextBatchEqualsNextLoop) {
  const auto one_by_one = [] {
    ingest::MmapPcapReader r(fixture("tiny_le.pcap"), ParseMode::kStrict);
    return drain(r);
  }();
  for (std::size_t max : {std::size_t{1}, std::size_t{5}, std::size_t{100}}) {
    SCOPED_TRACE(max);
    ingest::MmapPcapReader r(fixture("tiny_le.pcap"), ParseMode::kStrict);
    std::vector<RawPacket> batched;
    while (r.next_batch(batched, batched.size() + max) > 0) {
    }
    EXPECT_TRUE(same_raw(one_by_one, batched));
    EXPECT_EQ(r.stats().records, batched.size());
  }
}

TEST(MmapPcapReader, ResetReproducesIdenticalPackets) {
  ingest::MmapPcapReader r(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto first = drain(r);
  const auto bytes_first = r.stats().bytes;
  r.reset();
  const auto second = drain(r);
  EXPECT_TRUE(same_raw(first, second));
  EXPECT_EQ(r.stats().bytes, bytes_first);

  // The buffered fallback rewinds through lseek.
  ingest::MmapPcapReader b(
      std::make_unique<ingest::BufferedByteSource>(fixture("tiny_le.pcap")),
      fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto bfirst = drain(b);
  b.reset();
  EXPECT_TRUE(same_raw(bfirst, drain(b)));
}

// ---------------------------------------- flat == reference flow table

// The flow-reconstruction rules (flow_table.hpp) restated as plainly as
// possible: std::map for flows, hosts and FTP sessions, and the LRU as a
// map from touch sequence number to flow key. Slow and obviously
// ordered — the oracle the open-addressing table is pinned against.
class RefFlowTable {
 public:
  explicit RefFlowTable(ingest::FlowTableConfig config) : config_(config) {}

  trace::PacketRecord add(const RawPacket& pkt) {
    if (!any_ || pkt.time > clock_) clock_ = pkt.time;
    any_ = true;
    while (!lru_.empty() &&
           clock_ - flows_.at(lru_.begin()->second).last >
               config_.idle_timeout)
      close(lru_.begin()->second);

    const bool a_first =
        pkt.src_ip < pkt.dst_ip ||
        (pkt.src_ip == pkt.dst_ip && pkt.src_port <= pkt.dst_port);
    const Key key = a_first ? Key{pkt.src_ip, pkt.dst_ip, pkt.src_port,
                                  pkt.dst_port, pkt.tcp}
                            : Key{pkt.dst_ip, pkt.src_ip, pkt.dst_port,
                                  pkt.src_port, pkt.tcp};
    if (!flows_.count(key)) open(key, pkt);
    Flow& flow = flows_.at(key);

    const bool from_orig =
        pkt.src_ip == flow.orig_ip && pkt.src_port == flow.orig_port;
    if (pkt.time > flow.last) flow.last = pkt.time;
    (from_orig ? flow.bytes_orig : flow.bytes_resp) += pkt.payload_bytes;
    lru_.erase(flow.touched);
    flow.touched = ++touches_;
    lru_[flow.touched] = key;

    trace::PacketRecord rec;
    rec.time = pkt.time;
    rec.protocol = flow.protocol;
    rec.conn_id = flow.conn_id;
    rec.from_originator = from_orig;
    rec.payload_bytes = static_cast<std::uint16_t>(
        pkt.payload_bytes > 0xFFFF ? 0xFFFF : pkt.payload_bytes);
    if (pkt.tcp) {
      if (pkt.tcp_flags & ingest::kTcpFin)
        (from_orig ? flow.fin_orig : flow.fin_resp) = true;
      if ((pkt.tcp_flags & ingest::kTcpRst) ||
          (flow.fin_orig && flow.fin_resp))
        close(key);
    }
    return rec;
  }

  void flush() {
    while (!lru_.empty()) close(lru_.begin()->second);
  }
  void take_closed(std::vector<trace::ConnRecord>& out) {
    out.insert(out.end(), closed_.begin(), closed_.end());
    closed_.clear();
  }
  std::size_t host_count() const { return hosts_.size(); }
  std::uint32_t connections_seen() const { return next_conn_id_ - 1; }

 private:
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                         std::uint16_t, bool>;
  struct Flow {
    std::uint32_t conn_id = 0;
    std::uint32_t orig_ip = 0, resp_ip = 0;
    std::uint16_t orig_port = 0;
    double first = 0.0, last = 0.0;
    std::uint64_t bytes_orig = 0, bytes_resp = 0;
    trace::Protocol protocol = trace::Protocol::kOther;
    std::uint64_t session_id = 0;
    bool fin_orig = false, fin_resp = false;
    std::uint64_t touched = 0;
  };

  static std::uint64_t host_pair(std::uint32_t a, std::uint32_t b) {
    return (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
  }
  std::uint32_t host_id(std::uint32_t ip) {
    return hosts_.emplace(ip, static_cast<std::uint32_t>(hosts_.size() + 1))
        .first->second;
  }

  void open(const Key& key, const RawPacket& pkt) {
    Flow flow;
    flow.conn_id = next_conn_id_++;
    // A SYN+ACK first means the responder's half was caught first.
    const bool reversed = pkt.tcp && (pkt.tcp_flags & ingest::kTcpSyn) &&
                          (pkt.tcp_flags & ingest::kTcpAck);
    flow.orig_ip = reversed ? pkt.dst_ip : pkt.src_ip;
    flow.orig_port = reversed ? pkt.dst_port : pkt.src_port;
    flow.resp_ip = reversed ? pkt.src_ip : pkt.dst_ip;
    const std::uint16_t resp_port = reversed ? pkt.src_port : pkt.dst_port;
    flow.first = flow.last = pkt.time;
    flow.protocol =
        pkt.tcp ? ingest::classify_tcp(resp_port, flow.orig_port)
                : ingest::classify_udp(resp_port, flow.orig_port,
                                       pkt.multicast);
    host_id(flow.orig_ip);
    host_id(flow.resp_ip);
    const std::uint64_t pair = host_pair(flow.orig_ip, flow.resp_ip);
    if (flow.protocol == trace::Protocol::kFtpCtrl) {
      ftp_sessions_[pair] = flow.conn_id;
    } else if (flow.protocol == trace::Protocol::kFtpData) {
      const auto it = ftp_sessions_.find(pair);
      flow.session_id = it != ftp_sessions_.end() ? it->second : 0;
    }
    flows_[key] = flow;  // touched (and put in the LRU) by add()
  }

  // By value: callers pass the key stored in lru_, which this erases.
  void close(Key key) {
    const Flow flow = flows_.at(key);
    if (config_.collect_connections) {
      trace::ConnRecord rec;
      rec.start = flow.first;
      rec.duration = flow.last - flow.first;
      rec.protocol = flow.protocol;
      rec.src_host = host_id(flow.orig_ip);
      rec.dst_host = host_id(flow.resp_ip);
      rec.bytes_orig = flow.bytes_orig;
      rec.bytes_resp = flow.bytes_resp;
      rec.session_id = flow.session_id;
      closed_.push_back(rec);
    }
    const auto sess =
        ftp_sessions_.find(host_pair(flow.orig_ip, flow.resp_ip));
    if (flow.protocol == trace::Protocol::kFtpCtrl &&
        sess != ftp_sessions_.end() && sess->second == flow.conn_id)
      ftp_sessions_.erase(sess);
    lru_.erase(flow.touched);
    flows_.erase(key);
  }

  ingest::FlowTableConfig config_;
  std::map<Key, Flow> flows_;
  std::map<std::uint64_t, Key> lru_;  ///< touch number -> flow, oldest first
  std::map<std::uint32_t, std::uint32_t> hosts_;
  std::map<std::uint64_t, std::uint32_t> ftp_sessions_;
  std::vector<trace::ConnRecord> closed_;
  std::uint32_t next_conn_id_ = 1;
  std::uint64_t touches_ = 0;
  double clock_ = 0.0;
  bool any_ = false;
};

RawPacket mk(double t, std::uint32_t src, std::uint32_t dst,
             std::uint16_t sport, std::uint16_t dport, std::uint8_t flags,
             std::uint32_t payload, bool tcp = true) {
  RawPacket p;
  p.time = t;
  p.src_ip = src;
  p.dst_ip = dst;
  p.src_port = sport;
  p.dst_port = dport;
  p.tcp = tcp;
  p.tcp_flags = flags;
  p.payload_bytes = payload;
  return p;
}

struct TableRun {
  std::vector<trace::PacketRecord> pkts;
  std::vector<trace::ConnRecord> conns;
  std::size_t hosts = 0;
  std::uint32_t conn_ids = 0;
};

template <typename Table>
TableRun run_table(const std::vector<RawPacket>& stream,
                   ingest::FlowTableConfig cfg) {
  Table table(cfg);
  TableRun out;
  for (const RawPacket& p : stream) {
    out.pkts.push_back(table.add(p));
    table.take_closed(out.conns);  // interleaved, like FlowConnSource
  }
  table.flush();
  table.take_closed(out.conns);
  out.hosts = table.host_count();
  out.conn_ids = table.connections_seen();
  return out;
}

void expect_same_run(const TableRun& a, const TableRun& b) {
  ASSERT_EQ(a.pkts.size(), b.pkts.size());
  for (std::size_t i = 0; i < a.pkts.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_EQ(a.pkts[i].time, b.pkts[i].time);
    EXPECT_EQ(a.pkts[i].protocol, b.pkts[i].protocol);
    EXPECT_EQ(a.pkts[i].conn_id, b.pkts[i].conn_id);
    EXPECT_EQ(a.pkts[i].from_originator, b.pkts[i].from_originator);
    EXPECT_EQ(a.pkts[i].payload_bytes, b.pkts[i].payload_bytes);
  }
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (std::size_t i = 0; i < a.conns.size(); ++i) {
    SCOPED_TRACE("conn " + std::to_string(i));
    EXPECT_EQ(a.conns[i].start, b.conns[i].start);
    EXPECT_EQ(a.conns[i].duration, b.conns[i].duration);
    EXPECT_EQ(a.conns[i].protocol, b.conns[i].protocol);
    EXPECT_EQ(a.conns[i].src_host, b.conns[i].src_host);
    EXPECT_EQ(a.conns[i].dst_host, b.conns[i].dst_host);
    EXPECT_EQ(a.conns[i].bytes_orig, b.conns[i].bytes_orig);
    EXPECT_EQ(a.conns[i].bytes_resp, b.conns[i].bytes_resp);
    EXPECT_EQ(a.conns[i].session_id, b.conns[i].session_id);
  }
  EXPECT_EQ(a.hosts, b.hosts);
  EXPECT_EQ(a.conn_ids, b.conn_ids);
}

void expect_table_parity(const std::vector<RawPacket>& stream,
                         ingest::FlowTableConfig cfg = {}) {
  expect_same_run(run_table<ingest::FlowTable>(stream, cfg),
                  run_table<RefFlowTable>(stream, cfg));
}

TEST(FlatFlowTable, MatchesReferenceTableOnCloseAndReincarnation) {
  using ingest::kTcpAck;
  using ingest::kTcpFin;
  using ingest::kTcpRst;
  using ingest::kTcpSyn;
  std::vector<RawPacket> s;
  // FIN-pair close, then the same 4-tuple reincarnates as a new conn.
  s.push_back(mk(1.0, 1, 2, 1025, 23, kTcpSyn, 0));
  s.push_back(mk(1.1, 2, 1, 23, 1025, kTcpSyn | kTcpAck, 0));
  s.push_back(mk(1.2, 1, 2, 1025, 23, kTcpAck, 40));
  s.push_back(mk(1.3, 1, 2, 1025, 23, kTcpFin | kTcpAck, 0));
  s.push_back(mk(1.4, 2, 1, 23, 1025, kTcpFin | kTcpAck, 0));
  s.push_back(mk(2.0, 1, 2, 1025, 23, kTcpSyn, 0));  // reincarnation
  s.push_back(mk(2.1, 1, 2, 1025, 23, kTcpAck, 10));
  // RST close from the responder side, then reuse again.
  s.push_back(mk(3.0, 3, 4, 2000, 80, kTcpSyn, 0));
  s.push_back(mk(3.1, 4, 3, 80, 2000, kTcpRst, 0));
  s.push_back(mk(3.2, 3, 4, 2000, 80, kTcpSyn, 0));
  // First packet seen is the responder's SYN+ACK: reversed originator.
  s.push_back(mk(4.0, 6, 5, 119, 3000, kTcpSyn | kTcpAck, 0));
  s.push_back(mk(4.1, 5, 6, 3000, 119, kTcpAck, 99));
  expect_table_parity(s);
}

TEST(FlatFlowTable, MatchesReferenceTableOnIdleTimeoutEviction) {
  using ingest::kTcpAck;
  using ingest::kTcpSyn;
  ingest::FlowTableConfig cfg;
  cfg.idle_timeout = 2.0;
  std::vector<RawPacket> s;
  // Three flows opened in order; the middle one stays busy, so the
  // clock evicts 1 and 3 in LRU (not open) order, then flow 1's tuple
  // reincarnates with a fresh conn id.
  s.push_back(mk(0.0, 1, 2, 1000, 23, kTcpSyn, 0));
  s.push_back(mk(0.1, 3, 4, 1001, 79, kTcpSyn, 0));
  s.push_back(mk(0.2, 5, 6, 1002, 513, kTcpSyn, 0));
  s.push_back(mk(1.0, 3, 4, 1001, 79, kTcpAck, 10));
  s.push_back(mk(2.5, 3, 4, 1001, 79, kTcpAck, 10));
  s.push_back(mk(4.0, 3, 4, 1001, 79, kTcpAck, 10));  // evicts 1 and 3
  s.push_back(mk(4.1, 1, 2, 1000, 23, kTcpSyn, 0));   // reincarnation
  // UDP flows only ever close by eviction or flush.
  s.push_back(mk(4.2, 7, 8, 4000, 53, 0, 30, false));
  s.push_back(mk(4.3, 8, 7, 53, 4000, 0, 90, false));
  // The boundary: idle exactly idle_timeout keeps a flow (same conn id
  // at 10.0), idle just past it evicts (a fresh id at 12.25).
  s.push_back(mk(8.0, 9, 10, 5000, 23, kTcpSyn, 0));
  s.push_back(mk(10.0, 11, 12, 5001, 79, kTcpSyn, 0));
  s.push_back(mk(10.0, 9, 10, 5000, 23, kTcpAck, 5));
  s.push_back(mk(12.25, 9, 10, 5000, 23, kTcpSyn, 0));
  const TableRun ref = run_table<RefFlowTable>(s, cfg);
  EXPECT_EQ(ref.pkts[s.size() - 2].conn_id, ref.pkts[s.size() - 4].conn_id);
  EXPECT_NE(ref.pkts[s.size() - 1].conn_id, ref.pkts[s.size() - 2].conn_id);
  expect_table_parity(s, cfg);
}

TEST(FlatFlowTable, MatchesReferenceTableOnFtpSessionStamping) {
  using ingest::kTcpAck;
  using ingest::kTcpFin;
  using ingest::kTcpSyn;
  std::vector<RawPacket> s;
  // FTP control opens, stamps an active-mode data flow, closes; a later
  // data flow between the same hosts gets no session.
  s.push_back(mk(1.0, 1, 2, 1500, 21, kTcpSyn, 0));
  s.push_back(mk(1.1, 2, 1, 21, 1500, kTcpSyn | kTcpAck, 0));
  s.push_back(mk(2.0, 2, 1, 20, 1501, kTcpSyn, 0));  // stamped data flow
  s.push_back(mk(2.1, 2, 1, 20, 1501, kTcpAck, 512));
  s.push_back(mk(3.0, 1, 2, 1500, 21, kTcpFin, 0));
  s.push_back(mk(3.1, 2, 1, 21, 1500, kTcpFin | kTcpAck, 0));
  s.push_back(mk(4.0, 2, 1, 20, 1502, kTcpSyn, 0));  // orphan data flow
  expect_table_parity(s);
}

TEST(FlatFlowTable, MatchesReferenceTableAcrossRehashGrowth) {
  using ingest::kTcpAck;
  using ingest::kTcpFin;
  using ingest::kTcpSyn;
  // Far past the initial 1024-bucket capacity, with closes sprinkled in
  // so freed slots are reused while the bucket array regrows, then a
  // timeout sweep over everything left.
  ingest::FlowTableConfig cfg;
  cfg.idle_timeout = 50.0;
  std::vector<RawPacket> s;
  constexpr int kFlows = 3000;
  for (int f = 0; f < kFlows; ++f) {
    const auto src = static_cast<std::uint32_t>(10 + f % 97);
    const auto dst = static_cast<std::uint32_t>(1000 + f % 53);
    const auto sport = static_cast<std::uint16_t>(1024 + f);
    const auto dport = static_cast<std::uint16_t>(f % 3 == 0 ? 23 : 79);
    const double t = 0.01 * f;
    s.push_back(mk(t, src, dst, sport, dport, kTcpSyn, 0));
    s.push_back(mk(t + 0.001, dst, src, dport, sport,
                   kTcpSyn | kTcpAck, 0));
    s.push_back(mk(t + 0.002, src, dst, sport, dport, kTcpAck, 100));
    if (f % 5 == 0) {  // close a fifth of them early, both FINs
      s.push_back(mk(t + 0.003, src, dst, sport, dport, kTcpFin, 0));
      s.push_back(mk(t + 0.004, dst, src, dport, sport, kTcpFin, 0));
    }
  }
  s.push_back(mk(200.0, 1, 2, 9999, 23, kTcpSyn, 0));  // sweeps the rest
  expect_table_parity(s, cfg);
}

// ------------------------------------------- columnar == row end to end

TEST(PcapColumnSource, ColumnsMatchRowSourceRows) {
  ingest::PcapColumnSource cols(fixture("tiny_le.pcap"), ParseMode::kStrict);
  ingest::MmapPcapPacketSource rows(fixture("tiny_le.pcap"),
                                    ParseMode::kStrict);
  EXPECT_EQ(cols.info().name, rows.info().name);
  EXPECT_EQ(cols.info().t_begin, rows.info().t_begin);
  EXPECT_EQ(cols.info().t_end, rows.info().t_end);

  std::vector<trace::PacketRecord> from_cols;
  stream::PacketColumns chunk;
  while (cols.next(chunk)) chunk.to_rows(from_cols);
  std::vector<trace::PacketRecord> from_rows, chunk_rows;
  while (rows.next(chunk_rows))
    from_rows.insert(from_rows.end(), chunk_rows.begin(), chunk_rows.end());

  ASSERT_EQ(from_cols.size(), from_rows.size());
  for (std::size_t i = 0; i < from_cols.size(); ++i) {
    EXPECT_EQ(from_cols[i].time, from_rows[i].time);
    EXPECT_EQ(from_cols[i].protocol, from_rows[i].protocol);
    EXPECT_EQ(from_cols[i].conn_id, from_rows[i].conn_id);
    EXPECT_EQ(from_cols[i].from_originator, from_rows[i].from_originator);
    EXPECT_EQ(from_cols[i].payload_bytes, from_rows[i].payload_bytes);
  }
  expect_same_stats(cols.stats(), rows.stats());
}

TEST(PcapColumnSource, AnalysisIsByteIdenticalToBatchOracle) {
  // The full fast path (mmap -> flat table -> columns -> columnar
  // analysis) against the batch analysis of the materialized trace:
  // same result, same figure CSV bytes.
  stream::PipelineOptions opt;
  ingest::PcapColumnSource cols(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto fast = stream::analyze_columns(cols, opt);
  ingest::MmapPcapPacketSource rows(fixture("tiny_le.pcap"),
                                    ParseMode::kStrict);
  const auto legacy = stream::analyze_batch(stream::collect(rows), opt);

  EXPECT_EQ(fast.packets, legacy.packets);
  EXPECT_EQ(fast.bin, legacy.bin);
  ASSERT_EQ(fast.counts.size(), legacy.counts.size());
  for (std::size_t i = 0; i < fast.counts.size(); ++i)
    EXPECT_EQ(fast.counts[i], legacy.counts[i]);
  EXPECT_EQ(stream::vt_csv(fast), stream::vt_csv(legacy));
}

TEST(PcapColumnSource, FactoryBridgesAndNativePathAgree) {
  const auto a = ingest::open_packet_column_source(
      fixture("tiny_le.pcap"), ingest::IngestFormat::kPcap, {});
  ingest::ColumnsFromIngest b(std::make_unique<ingest::MmapPcapPacketSource>(
      fixture("tiny_le.pcap"), ParseMode::kStrict));
  const auto ca = stream::collect_columns(*a);
  const auto cb = stream::collect_columns(b);
  ASSERT_EQ(ca.size(), cb.size());
  EXPECT_EQ(ca.time, cb.time);
  EXPECT_EQ(ca.protocol, cb.protocol);
  EXPECT_EQ(ca.conn_id, cb.conn_id);
  EXPECT_EQ(ca.from_originator, cb.from_originator);
  EXPECT_EQ(ca.payload_bytes, cb.payload_bytes);
}

// ------------------------------------- one-pass == two-pass analysis

void expect_same_result(const stream::PipelineResult& a,
                        const stream::PipelineResult& b) {
  EXPECT_EQ(a.info.name, b.info.name);
  EXPECT_EQ(a.info.t_begin, b.info.t_begin);
  EXPECT_EQ(a.info.t_end, b.info.t_end);
  EXPECT_EQ(a.bin, b.bin);
  EXPECT_EQ(a.packets, b.packets);
  ASSERT_EQ(a.counts.size(), b.counts.size());
  for (std::size_t i = 0; i < a.counts.size(); ++i)
    EXPECT_EQ(a.counts[i], b.counts[i]);
  EXPECT_EQ(stream::vt_csv(a), stream::vt_csv(b));
}

TEST(OnepassAnalysis, MatchesEagerTwoPassOnInOrderCapture) {
  stream::PipelineOptions opt;
  ingest::PcapColumnSource eager(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto two_pass = stream::analyze_columns(eager, opt);

  ingest::PcapColumnSource deferred(
      fixture("tiny_le.pcap"), ParseMode::kStrict, {},
      stream::kDefaultChunkSize, ingest::Prescan::kDeferred);
  const auto one_pass = ingest::analyze_pcap_onepass(deferred, opt);

  // In-order capture: the speculation must succeed — info still
  // deferred proves the prescan never ran.
  EXPECT_TRUE(deferred.info_deferred());
  expect_same_result(one_pass, two_pass);
}

TEST(OnepassAnalysis, MatchesEagerTwoPassWithFullFilterStack) {
  stream::PipelineOptions opt;
  opt.protocol = trace::Protocol::kTelnet;
  opt.orig_data_only = true;
  opt.remove_outliers = true;
  ingest::PcapColumnSource eager(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto two_pass = stream::analyze_columns(eager, opt);

  // The outlier filter's threshold pass resets the source mid-stream;
  // the deferred source must come back identical (and the suffixed
  // info name must match the eager stack's).
  ingest::PcapColumnSource deferred(
      fixture("tiny_le.pcap"), ParseMode::kStrict, {},
      stream::kDefaultChunkSize, ingest::Prescan::kDeferred);
  const auto one_pass = ingest::analyze_pcap_onepass(deferred, opt);

  EXPECT_TRUE(deferred.info_deferred());
  expect_same_result(one_pass, two_pass);
}

TEST(OnepassAnalysis, GridSpanningSeveralGrowthBlocksMatchesEager) {
  // A bin width that puts 3.5 growth blocks of bins over the fixture's
  // span: the block-by-block assembly in finish() must reproduce the
  // fixed grid bit for bit, trailing partial block included.
  constexpr std::size_t kBlock = stats::SpeculativeBinCounts::kBlockBins;
  ingest::PcapColumnSource eager(fixture("tiny_le.pcap"), ParseMode::kStrict);
  stream::PipelineOptions opt;
  opt.bin = (eager.info().t_end - eager.info().t_begin) / (3.5 * kBlock);
  const auto two_pass = stream::analyze_columns(eager, opt);
  ASSERT_GT(two_pass.counts.size(), 3 * kBlock);

  ingest::PcapColumnSource deferred(
      fixture("tiny_le.pcap"), ParseMode::kStrict, {},
      stream::kDefaultChunkSize, ingest::Prescan::kDeferred);
  const auto one_pass = ingest::analyze_pcap_onepass(deferred, opt);

  EXPECT_TRUE(deferred.info_deferred());
  expect_same_result(one_pass, two_pass);
}

TEST(OnepassAnalysis, FallsBackOnOutOfOrderCapture) {
  stream::PipelineOptions opt;
  ingest::PcapColumnSource eager(fixture("tiny_ooo.pcap"),
                                 ParseMode::kLenient);
  const auto two_pass = stream::analyze_columns(eager, opt);

  ingest::PcapColumnSource deferred(
      fixture("tiny_ooo.pcap"), ParseMode::kLenient, {},
      stream::kDefaultChunkSize, ingest::Prescan::kDeferred);
  const auto one_pass = ingest::analyze_pcap_onepass(deferred, opt);

  // The out-of-order record must poison the speculation: the fallback
  // ran the real prescan, so info is no longer deferred.
  EXPECT_FALSE(deferred.info_deferred());
  expect_same_result(one_pass, two_pass);
}

TEST(OnepassAnalysis, ThrowsSeriesTooShortExactlyLikeEager) {
  stream::PipelineOptions opt;
  opt.bin = 10.0;  // 5 s fixture span -> 1 bin, far under the 16 floor
  ingest::PcapColumnSource eager(fixture("tiny_le.pcap"), ParseMode::kStrict);
  EXPECT_THROW(stream::analyze_columns(eager, opt), std::invalid_argument);
  ingest::PcapColumnSource deferred(
      fixture("tiny_le.pcap"), ParseMode::kStrict, {},
      stream::kDefaultChunkSize, ingest::Prescan::kDeferred);
  EXPECT_THROW(ingest::analyze_pcap_onepass(deferred, opt),
               std::invalid_argument);
}

TEST(OnepassAnalysis, StrictErrorsMatchTheEagerConstructor) {
  // The one-pass path is the tool's strict error path: the defect
  // surfaces mid-analysis instead of in the constructor's prescan, but
  // it must be the same IngestError with the same message.
  for (const char* name : {"tiny_ooo.pcap", "trunc.pcap"}) {
    SCOPED_TRACE(name);
    std::string eager_what;
    try {
      ingest::PcapColumnSource eager(fixture(name), ParseMode::kStrict);
      ADD_FAILURE() << "eager constructor accepted a corrupt capture";
    } catch (const IngestError& e) {
      eager_what = e.what();
    }
    ASSERT_FALSE(eager_what.empty());

    ingest::PcapColumnSource deferred(
        fixture(name), ParseMode::kStrict, {}, stream::kDefaultChunkSize,
        ingest::Prescan::kDeferred);
    try {
      ingest::analyze_pcap_onepass(deferred, {});
      ADD_FAILURE() << "one-pass analysis accepted a corrupt capture";
    } catch (const IngestError& e) {
      EXPECT_EQ(std::string(e.what()), eager_what);
    }
  }
}

TEST(OnepassAnalysis, DeferredSourceIsRejectedByStandardPipelines) {
  // A deferred info carries a zero time range on purpose: feeding it to
  // analyze_columns directly must fail loudly, never analyze a wrong
  // grid.
  ingest::PcapColumnSource deferred(
      fixture("tiny_le.pcap"), ParseMode::kStrict, {},
      stream::kDefaultChunkSize, ingest::Prescan::kDeferred);
  EXPECT_THROW(stream::analyze_columns(deferred, {}), std::invalid_argument);
  // ensure_eager_info() upgrades it to exactly the eager constructor's
  // info, after which the standard path works.
  deferred.ensure_eager_info();
  ingest::PcapColumnSource eager(fixture("tiny_le.pcap"), ParseMode::kStrict);
  EXPECT_EQ(deferred.info().name, eager.info().name);
  EXPECT_EQ(deferred.info().t_begin, eager.info().t_begin);
  EXPECT_EQ(deferred.info().t_end, eager.info().t_end);
  expect_same_result(stream::analyze_columns(deferred, {}),
                     stream::analyze_columns(eager, {}));
}

// ------------------------------------------------- stdin "-" spooling

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

// A pipe carrying a fixture, write end already closed so the spooler
// sees EOF without a writer thread (the fixtures are far below pipe
// capacity).
int fixture_pipe(const std::string& name) {
  const auto bytes = slurp(fixture(name));
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  return fds[0];
}

TEST(SpooledByteSource, PipeMatchesFileAndRewinds) {
  const int rd = fixture_pipe("tiny_le.pcap");
  ingest::MmapPcapReader piped(ingest::spooled_byte_source(rd, "<pipe>"),
                               "<pipe>", ParseMode::kStrict);
  ::close(rd);
  ingest::MmapPcapReader file(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto from_file = drain(file);
  EXPECT_TRUE(same_raw(from_file, drain(piped)));
  expect_same_stats(file.stats(), piped.stats());
  // The spool is an anonymous regular file: reset (the prescan rewind)
  // works even though the original pipe could never seek.
  piped.reset();
  EXPECT_TRUE(same_raw(from_file, drain(piped)));
}

TEST(StdinInput, DashStreamsAPipedPcapThroughTheColumnFactory) {
  const int rd = fixture_pipe("tiny_le.pcap");
  const int saved_stdin = ::dup(0);
  ASSERT_GE(saved_stdin, 0);
  ASSERT_EQ(::dup2(rd, 0), 0);
  ::close(rd);
  std::unique_ptr<ingest::IngestColumnSource> piped;
  try {
    piped = ingest::open_packet_column_source(
        "-", ingest::IngestFormat::kPcap, {});
  } catch (...) {
    ::dup2(saved_stdin, 0);
    ::close(saved_stdin);
    throw;
  }
  ::dup2(saved_stdin, 0);
  ::close(saved_stdin);

  const auto file = ingest::open_packet_column_source(
      fixture("tiny_le.pcap"), ingest::IngestFormat::kPcap, {});
  EXPECT_EQ(piped->info().t_begin, file->info().t_begin);
  EXPECT_EQ(piped->info().t_end, file->info().t_end);
  const auto ca = stream::collect_columns(*piped);
  const auto cb = stream::collect_columns(*file);
  ASSERT_EQ(ca.size(), cb.size());
  EXPECT_EQ(ca.time, cb.time);
  EXPECT_EQ(ca.protocol, cb.protocol);
  EXPECT_EQ(ca.conn_id, cb.conn_id);
  EXPECT_EQ(ca.from_originator, cb.from_originator);
  EXPECT_EQ(ca.payload_bytes, cb.payload_bytes);
  expect_same_stats(piped->stats(), file->stats());
}

// Builds a source with make(path) on a fresh named FIFO that a writer
// thread fills with fixture `name`; nullptr (and a test failure) when
// make throws. The writer's open() blocks until the source opens the
// read end.
template <class Make>
auto open_through_fifo(const std::string& name, Make make) {
  const std::string fifo = ::testing::TempDir() + "wantraffic_fifo_" +
                           std::to_string(::getpid());
  ::unlink(fifo.c_str());
  EXPECT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const auto bytes = slurp(fixture(name));
  std::thread writer([&] {
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  });
  decltype(make(fifo)) src;
  try {
    src = make(fifo);
  } catch (const std::exception& e) {
    ADD_FAILURE() << name << ": " << e.what();
  }
  writer.join();
  ::unlink(fifo.c_str());
  return src;
}

void expect_same_columns(stream::PacketColumnSource& a,
                         stream::PacketColumnSource& b) {
  EXPECT_EQ(a.info().t_begin, b.info().t_begin);
  EXPECT_EQ(a.info().t_end, b.info().t_end);
  const auto ca = stream::collect_columns(a);
  const auto cb = stream::collect_columns(b);
  ASSERT_EQ(ca.size(), cb.size());
  EXPECT_EQ(ca.time, cb.time);
  EXPECT_EQ(ca.protocol, cb.protocol);
  EXPECT_EQ(ca.conn_id, cb.conn_id);
  EXPECT_EQ(ca.from_originator, cb.from_originator);
  EXPECT_EQ(ca.payload_bytes, cb.payload_bytes);
}

// The eager constructors prescan, then rewind: a FIFO survives that
// only because open_byte_source spools it — for the pcap reader and,
// reading lines through the same byte source, the ITA ASCII readers.
TEST(FifoInput, EagerSourceDecodesANamedFifoLikeTheFile) {
  const auto pcap = open_through_fifo("tiny_le.pcap", [](const std::string& p) {
    return std::make_unique<ingest::PcapColumnSource>(p, ParseMode::kStrict);
  });
  ASSERT_NE(pcap, nullptr);
  ingest::PcapColumnSource pcap_file(fixture("tiny_le.pcap"),
                                     ParseMode::kStrict);
  expect_same_columns(*pcap, pcap_file);
  expect_same_stats(pcap->stats(), pcap_file.stats());

  const auto lbl_pkt =
      open_through_fifo("sample.lbl-pkt", [](const std::string& p) {
        return ingest::open_packet_column_source(
            p, ingest::IngestFormat::kLblPkt, {});
      });
  ASSERT_NE(lbl_pkt, nullptr);
  const auto lbl_pkt_file = ingest::open_packet_column_source(
      fixture("sample.lbl-pkt"), ingest::IngestFormat::kLblPkt, {});
  expect_same_columns(*lbl_pkt, *lbl_pkt_file);
  expect_same_stats(lbl_pkt->stats(), lbl_pkt_file->stats());

  const auto lbl_conn =
      open_through_fifo("sample.lbl-conn", [](const std::string& p) {
        return ingest::open_conn_source(p, ingest::IngestFormat::kLblConn,
                                        {});
      });
  ASSERT_NE(lbl_conn, nullptr);
  const auto lbl_conn_file = ingest::open_conn_source(
      fixture("sample.lbl-conn"), ingest::IngestFormat::kLblConn, {});
  EXPECT_EQ(lbl_conn->info().t_begin, lbl_conn_file->info().t_begin);
  EXPECT_EQ(lbl_conn->info().t_end, lbl_conn_file->info().t_end);
  const auto conns_piped = stream::collect_conns(*lbl_conn);
  const auto conns_file = stream::collect_conns(*lbl_conn_file);
  const std::vector<trace::ConnRecord>& ta = conns_piped.records();
  const std::vector<trace::ConnRecord>& tb = conns_file.records();
  ASSERT_GT(tb.size(), 0u);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    SCOPED_TRACE("conn " + std::to_string(i));
    EXPECT_EQ(ta[i].start, tb[i].start);
    EXPECT_EQ(ta[i].duration, tb[i].duration);
    EXPECT_EQ(ta[i].protocol, tb[i].protocol);
    EXPECT_EQ(ta[i].src_host, tb[i].src_host);
    EXPECT_EQ(ta[i].dst_host, tb[i].dst_host);
    EXPECT_EQ(ta[i].bytes_orig, tb[i].bytes_orig);
    EXPECT_EQ(ta[i].bytes_resp, tb[i].bytes_resp);
  }
  expect_same_stats(lbl_conn->stats(), lbl_conn_file->stats());
}

TEST(PcapColumnSource, ResetReproducesIdenticalColumns) {
  ingest::PcapColumnSource src(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto first = stream::collect_columns(src);
  src.reset();
  const auto second = stream::collect_columns(src);
  EXPECT_EQ(first.time, second.time);
  EXPECT_EQ(first.conn_id, second.conn_id);
  EXPECT_EQ(first.payload_bytes, second.payload_bytes);
}

}  // namespace

#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/burst.hpp"
#include "src/trace/conn_trace.hpp"
#include "src/trace/csv_io.hpp"
#include "src/trace/packet_trace.hpp"
#include "src/trace/protocol.hpp"

namespace wan::trace {
namespace {

ConnRecord conn(double start, double dur, Protocol p, std::uint64_t sid = 0,
                std::uint64_t bytes = 1000, std::uint32_t src = 1,
                std::uint32_t dst = 2) {
  ConnRecord r;
  r.start = start;
  r.duration = dur;
  r.protocol = p;
  r.session_id = sid;
  r.bytes_resp = bytes;
  r.src_host = src;
  r.dst_host = dst;
  return r;
}

// ------------------------------------------------------------- protocol

TEST(Protocol, RoundtripNames) {
  for (Protocol p : kAllProtocols) {
    const auto s = to_string(p);
    const auto back = protocol_from_string(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(protocol_from_string("BOGUS").has_value());
}

// ------------------------------------------------------------ ConnTrace

TEST(ConnTrace, ArrivalTimes) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(5.0, 1.0, Protocol::kTelnet));
  t.add(conn(1.0, 1.0, Protocol::kFtpData));
  t.add(conn(3.0, 1.0, Protocol::kTelnet));
  const auto times = t.arrival_times(Protocol::kTelnet);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 3.0);  // sorted
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(ConnTrace, SortBYStartAndSummary) {
  ConnTrace t("t", 0.0, 10.0);
  t.add(conn(5.0, 1.0, Protocol::kSmtp, 0, 100));
  t.add(conn(1.0, 1.0, Protocol::kSmtp, 0, 200));
  t.sort_by_start();
  EXPECT_DOUBLE_EQ(t.records()[0].start, 1.0);
  const auto rows = t.summary();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].connections, 2u);
  EXPECT_EQ(rows[0].bytes, 300u);
  EXPECT_EQ(t.total_bytes(), 300u);
}

TEST(ConnTrace, HourlyProfileNormalized) {
  ConnTrace t("t", 0.0, 86400.0);
  t.add(conn(9.5 * 3600.0, 1.0, Protocol::kTelnet));
  t.add(conn(9.7 * 3600.0, 1.0, Protocol::kTelnet));
  t.add(conn(14.0 * 3600.0, 1.0, Protocol::kTelnet));
  t.add(conn(26.0 * 3600.0, 1.0, Protocol::kTelnet));  // wraps to hour 2
  const auto prof = t.hourly_profile(Protocol::kTelnet);
  EXPECT_DOUBLE_EQ(prof[9], 0.5);
  EXPECT_DOUBLE_EQ(prof[14], 0.25);
  EXPECT_DOUBLE_EQ(prof[2], 0.25);
  double total = 0.0;
  for (double v : prof) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// ---------------------------------------------------------- PacketTrace

TEST(PacketTrace, OriginatorDataFiltering) {
  PacketTrace t("p", 0.0, 10.0);
  PacketRecord a{1.0, Protocol::kTelnet, 1, true, 1};
  PacketRecord pure_ack{2.0, Protocol::kTelnet, 1, true, 0};
  PacketRecord resp{3.0, Protocol::kTelnet, 1, false, 5};
  t.add(a);
  t.add(pure_ack);
  t.add(resp);
  const auto filtered = t.originator_data_packets();
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_DOUBLE_EQ(filtered.records()[0].time, 1.0);
}

TEST(PacketTrace, BulkOutlierRemoval) {
  PacketTrace t("p", 0.0, 1000.0);
  // Connection 1: human typing — 50 packets of 1 byte over 500 s.
  for (int i = 0; i < 50; ++i)
    t.add({i * 10.0, Protocol::kTelnet, 1, true, 1});
  // Connection 2: a bulk blast — 2000 bytes in 10 s (200 B/s > 8 B/s).
  for (int i = 0; i < 20; ++i)
    t.add({i * 0.5, Protocol::kTelnet, 2, true, 100});
  const auto cleaned = t.remove_bulk_outliers();
  EXPECT_EQ(cleaned.connection_count(), 1u);
  for (const auto& r : cleaned.records()) EXPECT_EQ(r.conn_id, 1u);
}

TEST(PacketTrace, PacketTimesSortedAndByProtocol) {
  PacketTrace t("p", 0.0, 10.0);
  t.add({3.0, Protocol::kTelnet, 1, true, 1});
  t.add({1.0, Protocol::kFtpData, 2, true, 512});
  t.add({2.0, Protocol::kTelnet, 1, true, 1});
  const auto all = t.packet_times();
  EXPECT_DOUBLE_EQ(all[0], 1.0);
  EXPECT_DOUBLE_EQ(all[2], 3.0);
  EXPECT_EQ(t.packet_times(Protocol::kTelnet).size(), 2u);
  const auto rows = t.summary();
  EXPECT_EQ(rows.size(), 2u);
}

// ----------------------------------------------------------- burst code

TEST(Burst, GapRuleJoinsAndSplits) {
  ConnTrace t("t", 0.0, 1000.0);
  // Session 7: conns ending at 11, starting 13 (gap 2 <= 4: same burst);
  // then one starting at 30 (gap 14 > 4: new burst).
  t.add(conn(10.0, 1.0, Protocol::kFtpData, 7, 100));
  t.add(conn(13.0, 3.0, Protocol::kFtpData, 7, 200));
  t.add(conn(30.0, 5.0, Protocol::kFtpData, 7, 400));
  const auto bursts = find_ftp_bursts(t, 4.0);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].n_connections, 2u);
  EXPECT_EQ(bursts[0].bytes, 300u);
  EXPECT_DOUBLE_EQ(bursts[0].start, 10.0);
  EXPECT_DOUBLE_EQ(bursts[0].end, 16.0);
  EXPECT_EQ(bursts[1].n_connections, 1u);
}

TEST(Burst, ExactGapBoundaryJoins) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpData, 1, 10));
  t.add(conn(5.0, 1.0, Protocol::kFtpData, 1, 10));  // gap exactly 4.0
  EXPECT_EQ(find_ftp_bursts(t, 4.0).size(), 1u);
  EXPECT_EQ(find_ftp_bursts(t, 3.9).size(), 2u);
}

TEST(Burst, SessionsDoNotMix) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpData, 1, 10));
  t.add(conn(2.0, 1.0, Protocol::kFtpData, 2, 10));  // other session
  const auto bursts = find_ftp_bursts(t, 4.0);
  EXPECT_EQ(bursts.size(), 2u);
}

TEST(Burst, HostPairGroupingMergesSessions) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpData, 1, 10, 5, 9));
  t.add(conn(2.0, 1.0, Protocol::kFtpData, 2, 10, 5, 9));  // same hosts
  EXPECT_EQ(find_ftp_bursts(t, 4.0, SessionGrouping::kHostPair).size(), 1u);
}

TEST(Burst, NonFtpDataIgnored) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpCtrl, 1, 10));
  t.add(conn(0.5, 1.0, Protocol::kTelnet, 1, 10));
  EXPECT_TRUE(find_ftp_bursts(t).empty());
}

TEST(Burst, IntraSessionSpacings) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 2.0, Protocol::kFtpData, 1, 10));
  t.add(conn(5.0, 1.0, Protocol::kFtpData, 1, 10));   // spacing 3
  t.add(conn(5.5, 1.0, Protocol::kFtpData, 1, 10));   // overlap -> clamp
  const auto sp = intra_session_spacings(t);
  ASSERT_EQ(sp.size(), 2u);
  EXPECT_DOUBLE_EQ(sp[0], 3.0);
  EXPECT_DOUBLE_EQ(sp[1], 1e-3);
}

TEST(Burst, HelpersExtractFields) {
  std::vector<FtpBurst> bursts = {
      {1.0, 2.0, 100, 1, 1}, {0.5, 3.0, 200, 2, 2}};
  const auto bytes = burst_bytes(bursts);
  EXPECT_DOUBLE_EQ(bytes[0], 100.0);
  const auto starts = burst_start_times(bursts);
  EXPECT_DOUBLE_EQ(starts[0], 0.5);  // sorted
}

// --------------------------------------------------------------- csv io

TEST(CsvIo, ConnRoundtrip) {
  ConnTrace t("t", 0.0, 50.0);
  t.add(conn(1.5, 2.5, Protocol::kFtpData, 42, 12345, 3, 4));
  t.add(conn(10.0, 0.5, Protocol::kTelnet, 0, 10, 1, 2));
  std::stringstream ss;
  write_csv(t, ss);
  const auto back = read_conn_csv(ss, "t");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back.t_end(), 50.0);
  EXPECT_DOUBLE_EQ(back.records()[0].start, 1.5);
  EXPECT_EQ(back.records()[0].protocol, Protocol::kFtpData);
  EXPECT_EQ(back.records()[0].session_id, 42u);
  EXPECT_EQ(back.records()[0].bytes_resp, 12345u);
}

TEST(CsvIo, PacketRoundtrip) {
  PacketTrace t("p", 0.0, 5.0);
  t.add({0.25, Protocol::kTelnet, 7, true, 1});
  t.add({1.75, Protocol::kDns, 8, false, 120});
  std::stringstream ss;
  write_csv(t, ss);
  const auto back = read_packet_csv(ss, "p");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.records()[1].protocol, Protocol::kDns);
  EXPECT_FALSE(back.records()[1].from_originator);
  EXPECT_EQ(back.records()[1].payload_bytes, 120);
}

TEST(CsvIo, MalformedInputRejected) {
  std::stringstream ss("header\n1.0,NOPE,1,1,1\n");
  EXPECT_THROW(read_packet_csv(ss), std::runtime_error);
  std::stringstream ss2("header\n1.0,2.0\n");
  EXPECT_THROW(read_conn_csv(ss2), std::runtime_error);
  std::stringstream empty("");
  EXPECT_THROW(read_conn_csv(empty), std::runtime_error);
}

TEST(CsvIo, FileRoundtrip) {
  ConnTrace t("t", 0.0, 10.0);
  t.add(conn(1.0, 1.0, Protocol::kWww, 3, 555));
  const std::string path = ::testing::TempDir() + "/wan_csvio_test.csv";
  write_csv_file(t, path);
  const auto back = read_conn_csv_file(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records()[0].protocol, Protocol::kWww);
  EXPECT_THROW(read_conn_csv_file("/nonexistent/nope.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace wan::trace

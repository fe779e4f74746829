// Front door of the ingestion subsystem: pick a format, get a chunk
// source. Tools parse "--ingest-format=pcap|lbl-conn|lbl-pkt" into an
// IngestFormat and hand the rest to these factories.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/ingest/sources.hpp"
#include "src/trace/conn_trace.hpp"

namespace wan::ingest {

enum class IngestFormat : std::uint8_t {
  kPcap,     ///< binary libpcap capture
  kLblConn,  ///< ITA lbl-conn-7 ASCII connection log
  kLblPkt,   ///< ITA lbl-pkt / dec-pkt ASCII packet lines
};

/// "pcap", "lbl-conn", "lbl-pkt" (the --ingest-format spellings).
std::optional<IngestFormat> ingest_format_from_string(
    std::string_view s) noexcept;

struct IngestOptions {
  ParseMode mode = ParseMode::kStrict;
  std::size_t chunk_size = stream::kDefaultChunkSize;
  FlowTableConfig flow;  ///< idle timeout for flow reconstruction
};

/// Packet-level source for the packet formats (pcap, lbl-pkt).
/// Throws std::invalid_argument for kLblConn — connection logs hold no
/// packets. Throws IngestError per the strict-mode contract.
std::unique_ptr<IngestPacketSource> open_packet_source(
    const std::string& path, IngestFormat format, const IngestOptions& opt);

/// Columnar packet-level source: pcap decodes straight into
/// PacketColumns (PcapColumnSource — no row chunk, the zero-copy fast
/// path analyze_columns drains); lbl-pkt is the row source bridged
/// through a transpose.
/// Rows are identical to open_packet_source's in every configuration.
/// Throws std::invalid_argument for kLblConn.
std::unique_ptr<IngestColumnSource> open_packet_column_source(
    const std::string& path, IngestFormat format, const IngestOptions& opt);

/// Connection-level source for any format: lbl-conn logs stream
/// directly; the packet formats are folded through flow reconstruction.
std::unique_ptr<IngestConnSource> open_conn_source(const std::string& path,
                                                   IngestFormat format,
                                                   const IngestOptions& opt);

/// Convenience batch wrapper: ingest `path` into a ConnTrace sorted by
/// start time, ready for poisson_report / find_ftp_bursts. `stats_out`,
/// when non-null, receives the emission-pass ledger.
trace::ConnTrace reconstruct_conn_trace(const std::string& path,
                                        IngestFormat format,
                                        const IngestOptions& opt,
                                        IngestStats* stats_out = nullptr);

}  // namespace wan::ingest

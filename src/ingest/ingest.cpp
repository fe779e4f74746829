#include "src/ingest/ingest.hpp"

#include <stdexcept>

namespace wan::ingest {

std::optional<IngestFormat> ingest_format_from_string(
    std::string_view s) noexcept {
  if (s == "pcap") return IngestFormat::kPcap;
  if (s == "lbl-conn") return IngestFormat::kLblConn;
  if (s == "lbl-pkt") return IngestFormat::kLblPkt;
  return std::nullopt;
}

std::unique_ptr<IngestPacketSource> open_packet_source(
    const std::string& path, IngestFormat format, const IngestOptions& opt) {
  switch (format) {
    case IngestFormat::kPcap:
      return std::make_unique<MmapPcapPacketSource>(path, opt.mode, opt.flow,
                                                    opt.chunk_size);
    case IngestFormat::kLblPkt:
      return std::make_unique<LblPktPacketSource>(path, opt.mode, opt.flow,
                                                  opt.chunk_size);
    case IngestFormat::kLblConn:
      break;
  }
  throw std::invalid_argument(
      "lbl-conn logs hold connections, not packets; use open_conn_source");
}

std::unique_ptr<IngestColumnSource> open_packet_column_source(
    const std::string& path, IngestFormat format, const IngestOptions& opt) {
  // Native columnar decode exists only for pcap; lbl-pkt keeps its row
  // source and transposes.
  if (format == IngestFormat::kPcap)
    return std::make_unique<PcapColumnSource>(path, opt.mode, opt.flow,
                                              opt.chunk_size);
  return std::make_unique<ColumnsFromIngest>(
      open_packet_source(path, format, opt));
}

std::unique_ptr<IngestConnSource> open_conn_source(const std::string& path,
                                                   IngestFormat format,
                                                   const IngestOptions& opt) {
  switch (format) {
    case IngestFormat::kPcap:
      return std::make_unique<MmapPcapConnSource>(path, opt.mode, opt.flow,
                                                  opt.chunk_size);
    case IngestFormat::kLblPkt:
      return std::make_unique<LblPktConnSource>(path, opt.mode, opt.flow,
                                                opt.chunk_size);
    case IngestFormat::kLblConn:
      return std::make_unique<LblConnSource>(path, opt.mode, opt.chunk_size);
  }
  throw std::invalid_argument("unknown ingest format");
}

trace::ConnTrace reconstruct_conn_trace(const std::string& path,
                                        IngestFormat format,
                                        const IngestOptions& opt,
                                        IngestStats* stats_out) {
  const auto source = open_conn_source(path, format, opt);
  auto tr = stream::collect_conns(*source);
  tr.sort_by_start();
  if (stats_out != nullptr) *stats_out = source->stats();
  return tr;
}

}  // namespace wan::ingest

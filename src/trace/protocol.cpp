#include "src/trace/protocol.hpp"

namespace wan::trace {

std::string_view to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::kTelnet: return "TELNET";
    case Protocol::kRlogin: return "RLOGIN";
    case Protocol::kFtpCtrl: return "FTP";
    case Protocol::kFtpData: return "FTPDATA";
    case Protocol::kSmtp: return "SMTP";
    case Protocol::kNntp: return "NNTP";
    case Protocol::kWww: return "WWW";
    case Protocol::kX11: return "X11";
    case Protocol::kDns: return "DNS";
    case Protocol::kMbone: return "MBONE";
    case Protocol::kOther: return "OTHER";
  }
  return "OTHER";
}

std::optional<Protocol> protocol_from_string(std::string_view s) noexcept {
  for (Protocol p : kAllProtocols) {
    if (to_string(p) == s) return p;
  }
  return std::nullopt;
}

}  // namespace wan::trace

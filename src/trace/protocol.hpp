// The TCP application protocols the paper analyzes (Section III), plus
// the non-TCP families mentioned for the link-level traces (Section VII).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace wan::trace {

/// Application protocol of a connection or packet.
enum class Protocol : std::uint8_t {
  kTelnet,   ///< interactive remote login (one TCP connection per session)
  kRlogin,   ///< interactive; behaves like TELNET for arrivals
  kFtpCtrl,  ///< FTP control connection == "FTP session" in the paper
  kFtpData,  ///< FTPDATA transfer connections spawned by a session
  kSmtp,     ///< email; machine-initiated, timer-driven
  kNntp,     ///< network news; flooding + timers
  kWww,      ///< World Wide Web (young and growing in 1994)
  kX11,      ///< X11: many connections per user session
  kDns,      ///< UDP DNS (link-level traces only)
  kMbone,    ///< multicast UDP audio (link-level traces only)
  kOther,
};

inline constexpr Protocol kAllProtocols[] = {
    Protocol::kTelnet, Protocol::kRlogin, Protocol::kFtpCtrl,
    Protocol::kFtpData, Protocol::kSmtp,  Protocol::kNntp,
    Protocol::kWww,    Protocol::kX11,    Protocol::kDns,
    Protocol::kMbone,  Protocol::kOther,
};

std::string_view to_string(Protocol p) noexcept;
std::optional<Protocol> protocol_from_string(std::string_view s) noexcept;

}  // namespace wan::trace

// Tail-follow pcap source: the daemon's unbounded input. Follows a
// capture file that another process is still appending to (tcpdump -w,
// a log rotator's current file) or a pipe carrying a live capture, and
// decodes exactly the records that are complete *right now* — a
// mid-record partial write is held in the buffer until the rest of its
// bytes land, never decoded early and never re-read.
//
// The crux is re-using MmapPcapReader's clean-EOF/truncation taxonomy
// with the opposite default: for the offline readers a short tail is
// terminal (truncated_records), but for a growing file "short" just
// means "the writer hasn't finished this record yet". So the poll
// verdicts are:
//
//   * kProgress     — at least one complete record decoded;
//   * kCaughtUp     — no complete record available; the next append may
//                     complete one, poll again after a delay;
//   * kEndOfStream  — a pipe delivered EOF at a record boundary (a pipe
//                     cannot grow back; a regular file never reports
//                     this, because a future append is always possible);
//   * kCorrupt      — a structural defect that no future append can
//                     repair: bad global header, oversized record
//                     length, or a pipe EOF mid-record. Counted in the
//                     same ledger rows the offline readers use
//                     (bad_headers / oversized_records /
//                     truncated_records), through the same report()
//                     choke point — strict mode therefore throws
//                     IngestError from poll() exactly where the offline
//                     readers would.
//
// Bytes are consumed exactly once: a regular file is read with pread at
// a monotonically advancing offset (the file is never seeked, so an
// external writer's position is untouched), a pipe with nonblocking
// read. Memory is bounded by one record plus the read block, like
// BufferedByteSource.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ingest/ingest_stats.hpp"
#include "src/ingest/pcap_decode.hpp"
#include "src/ingest/raw_packet.hpp"

namespace wan::monitor {

enum class PollStatus {
  kProgress,
  kCaughtUp,
  kEndOfStream,
  kCorrupt,
};

class TailPcapSource {
 public:
  /// Opens `path` for following; "-" follows standard input as a pipe.
  /// Throws std::runtime_error when the path cannot be opened. The
  /// global header is parsed lazily — a file that does not yet hold 24
  /// bytes polls kCaughtUp until it does.
  TailPcapSource(const std::string& path, ingest::ParseMode mode);
  ~TailPcapSource();

  TailPcapSource(const TailPcapSource&) = delete;
  TailPcapSource& operator=(const TailPcapSource&) = delete;

  /// Appends up to `max` newly completed records to `out` (which is NOT
  /// cleared — the daemon accumulates a chunk across polls). See the
  /// file comment for the verdict taxonomy. After kCorrupt every later
  /// poll returns kCorrupt again; after kEndOfStream, kEndOfStream.
  PollStatus poll(std::vector<ingest::RawPacket>& out, std::size_t max);

  const ingest::IngestStats& stats() const { return stats_; }
  bool header_ok() const { return header_.ok; }
  double tick() const { return header_.tick; }
  /// Max packet timestamp decoded so far (0 before any packet).
  double max_time_seen() const { return prev_time_; }
  bool saw_packet() const { return any_record_; }
  /// Total input bytes consumed (header + records), for self-stats.
  std::uint64_t bytes_consumed() const { return file_off_; }

 private:
  /// Pulls whatever bytes are available right now into the buffer.
  void fill();

  int fd_ = -1;
  bool seekable_ = false;  ///< regular file: pread at file_off_
  std::uint64_t file_off_ = 0;
  std::string path_;
  ingest::ParseMode mode_;

  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;  ///< cursor within buf_
  std::size_t end_ = 0;  ///< valid bytes in buf_

  ingest::PcapHeader header_;
  bool header_parsed_ = false;
  bool pipe_eof_ = false;
  bool fatal_ = false;
  ingest::IngestStats stats_;
  double prev_time_ = 0.0;
  bool any_record_ = false;
};

}  // namespace wan::monitor

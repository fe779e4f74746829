#include "src/monitor/tail_source.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace wan::monitor {

namespace {

/// Read granularity, and the high-water mark past which a fill stops
/// pulling: the decode loop drains at most one chunk per poll, so the
/// buffer must not race ahead of it when the writer is much faster.
constexpr std::size_t kReadBlock = std::size_t{256} << 10;
constexpr std::size_t kFillTarget = std::size_t{4} << 20;

}  // namespace

TailPcapSource::TailPcapSource(const std::string& path,
                               ingest::ParseMode mode)
    : path_(path), mode_(mode) {
  if (path == "-") {
    fd_ = ::dup(0);
    if (fd_ < 0)
      throw std::runtime_error("monitor: cannot dup stdin for follow");
    path_ = "<stdin>";
  } else {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
      throw std::runtime_error("monitor: cannot open for follow: " + path);
  }
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
    seekable_ = true;
  } else {
    // Pipes/FIFOs: nonblocking, so a poll with nothing pending returns
    // kCaughtUp instead of stalling the daemon loop.
    const int fl = ::fcntl(fd_, F_GETFL);
    if (fl >= 0) ::fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
  }
}

TailPcapSource::~TailPcapSource() {
  if (fd_ >= 0) ::close(fd_);
}

void TailPcapSource::fill() {
  if (pipe_eof_ || fatal_) return;
  // Slide the undecoded tail to the front so consumed bytes are
  // reclaimed before growing the buffer.
  if (pos_ > 0) {
    const std::size_t tail = end_ - pos_;
    if (tail > 0) std::memmove(buf_.data(), buf_.data() + pos_, tail);
    end_ = tail;
    pos_ = 0;
  }
  while (end_ - pos_ < kFillTarget) {
    if (buf_.size() < end_ + kReadBlock) buf_.resize(end_ + kReadBlock);
    ssize_t got;
    if (seekable_) {
      got = ::pread(fd_, buf_.data() + end_, buf_.size() - end_,
                    static_cast<off_t>(file_off_));
    } else {
      got = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
    }
    if (got > 0) {
      end_ += static_cast<std::size_t>(got);
      file_off_ += static_cast<std::uint64_t>(got);
      continue;
    }
    if (got == 0) {
      // A regular file at its current end may still grow; a pipe at EOF
      // never delivers another byte.
      if (!seekable_) pipe_eof_ = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // nothing pending
    fatal_ = true;
    report(stats_, &ingest::IngestStats::io_errors, mode_,
           "pcap read failed while following: " + path_);
    return;
  }
}

PollStatus TailPcapSource::poll(std::vector<ingest::RawPacket>& out,
                                std::size_t max) {
  if (fatal_) return PollStatus::kCorrupt;
  fill();
  if (fatal_) return PollStatus::kCorrupt;

  if (!header_parsed_) {
    const std::size_t avail = end_ - pos_;
    if (avail < 24 && !pipe_eof_)
      return PollStatus::kCaughtUp;  // header still being written
    // Enough bytes — or a pipe that will never deliver them: parse what
    // there is, so a truncated/bad header lands in the ledger exactly
    // like the offline readers' construction would put it.
    if (avail >= 24) stats_.bytes += 24;
    fatal_ = true;  // cleared below iff the header checks out
    header_ = ingest::parse_pcap_header(buf_.data() + pos_,
                                        avail < 24 ? avail : 24, stats_,
                                        mode_, path_);
    if (!header_.ok) return PollStatus::kCorrupt;
    fatal_ = false;
    pos_ += 24;
    header_parsed_ = true;
  }

  const std::uint32_t frac_limit =
      header_.tick == 1e-6 ? 1000000u : 1000000000u;
  std::size_t decoded = 0;
  ingest::RawPacket pkt;
  while (decoded < max) {
    const std::size_t avail = end_ - pos_;
    if (avail == 0) break;  // record boundary: caught up or clean EOF
    if (avail < 16) {
      if (!pipe_eof_) break;  // header half-written: hold until complete
      fatal_ = true;
      report(stats_, &ingest::IngestStats::truncated_records, mode_,
             "pcap final record header truncated by EOF: " + path_);
      break;
    }
    const unsigned char* rh = buf_.data() + pos_;
    const std::uint32_t incl_len = header_.u32(rh + 8);
    if (incl_len > ingest::kMaxCaptureBytes) {
      stats_.bytes += 16;
      fatal_ = true;
      report(stats_, &ingest::IngestStats::oversized_records, mode_,
             "pcap record length " + std::to_string(incl_len) +
                 " beyond sanity cap: " + path_);
      break;
    }
    if (avail - 16 < incl_len) {
      if (!pipe_eof_) break;  // data half-written: hold until complete
      stats_.bytes += 16;
      fatal_ = true;
      report(stats_, &ingest::IngestStats::truncated_records, mode_,
             "pcap final record data truncated by EOF: " + path_);
      break;
    }

    // The record is complete: consume it whole, then the usual decode.
    stats_.bytes += 16u + incl_len;
    const std::uint32_t ts_sec = header_.u32(rh);
    const std::uint32_t ts_frac = header_.u32(rh + 4);
    pos_ += 16u + incl_len;

    if (ts_frac >= frac_limit) {
      report(stats_, &ingest::IngestStats::bad_headers, mode_,
             "pcap timestamp fraction out of range: " + path_);
      continue;  // lenient: drop this record, keep going
    }
    const double t = static_cast<double>(ts_sec) +
                     static_cast<double>(ts_frac) * header_.tick;
    if (!ingest::decode_pcap_frame_inline(header_, rh + 16, incl_len, pkt,
                                          stats_, mode_, path_))
      continue;  // counted inside

    pkt.time = t;
    if (any_record_ && t < prev_time_) {
      report(stats_, &ingest::IngestStats::out_of_order, mode_,
             "pcap timestamp went backwards: " + path_);
    }
    if (!any_record_ || t > prev_time_) prev_time_ = t;
    any_record_ = true;
    ++stats_.records;
    out.push_back(pkt);
    ++decoded;
  }

  if (decoded > 0) return PollStatus::kProgress;
  if (fatal_) return PollStatus::kCorrupt;
  if (pipe_eof_ && end_ == pos_) return PollStatus::kEndOfStream;
  return PollStatus::kCaughtUp;
}

}  // namespace wan::monitor

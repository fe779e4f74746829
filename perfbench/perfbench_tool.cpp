// perfbench_tool — the benchmark's helper. It never stands in for the
// tools under test; it makes their inputs and the references their
// outputs are checked against, and it runs the traced recompositions
// of each tool's path from public library calls.
//
//   gen --seed S --hours H --out CAP [--max-packets N] [--ref REF.json]
//       LBL packet preset, streamed and encoded as a pcap with
//       ingest::PcapRecordEncoder between two marker packets at the
//       window's edges. --max-packets thins the synthesized packets,
//       evenly over the window, to N when there are more, so that every
//       seed gives the same decode work. --ref also bins the timestamps just
//       written (aggregate and TELNET, 0.1 s) and runs
//       selfsim::hurst_report on them: the pcap_whole reference.
//   trace-pcap --cap CAP --seconds T --out TRACE.json
//       open_packet_column_source -> analyze_columns (source behind a
//       timing decorator) -> hurst_report, alternating the aggregate and
//       --protocol TELNET, on one thread, until T seconds have passed.
//   trace-synth --hours H --seed S --file OUT --seconds T --out TRACE.json
//       StreamingPacketSynthesizer -> ChunkedBinaryWriter on two threads,
//       the path of `wantraffic_synth pkt --binary --stream`.
//   trace-follow --out TRACE.json --reports REPORTS.jsonl -- MONITOR ARGS
//       the wantraffic_monitor --follow loop (TailPcapSource::poll ->
//       FlowTable::add_append -> EngineMux::push/take_reports ->
//       DriftTracker::on_report) until SIGTERM.
//
// Spans are kept in memory and written once at the end as
// {"names": [...], "spans": [[name, parent, start_ns, end_ns], ...]}.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/fft/plan.hpp"
#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest.hpp"
#include "src/ingest/pcap_writer.hpp"
#include "src/ingest/sources.hpp"
#include "src/monitor/daemon.hpp"
#include "src/monitor/drift.hpp"
#include "src/monitor/mux.hpp"
#include "src/monitor/tail_source.hpp"
#include "src/par/parallel.hpp"
#include "src/selfsim/hurst_report.hpp"
#include "src/stats/counting.hpp"
#include "src/stream/binary_chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

using namespace wan;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. A span's parent is whichever span was open
/// when it began; names are interned so a span costs four integers.
class Tracer {
 public:
  int begin(const std::string& name) {
    auto [it, fresh] = ids_.try_emplace(name, names_.size());
    if (fresh) names_.push_back(name);
    spans_.push_back({it->second, current_, now_ns(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void end(int id) {
    spans_[id].end = now_ns();
    current_ = spans_[id].parent;
  }
  /// Re-labels a closed span once its outcome is known.
  void rename(int id, const std::string& name) {
    auto [it, fresh] = ids_.try_emplace(name, names_.size());
    if (fresh) names_.push_back(name);
    spans_[id].name = it->second;
  }
  void write(std::FILE* f) const {
    std::fputs("\"names\":[", f);
    for (std::size_t i = 0; i < names_.size(); ++i)
      std::fprintf(f, "%s\"%s\"", i ? "," : "", names_[i].c_str());
    std::fputs("],\"spans\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s[%zu,%d,%lld,%lld]", i ? "," : "", s.name, s.parent,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    std::fputc(']', f);
  }

 private:
  struct Span {
    std::size_t name;
    int parent;
    std::int64_t start, end;
  };
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::size_t> ids_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Timing decorator: every next() of the wrapped source is one
/// "ingest.decode" span, so decode is split out of analyze_columns.
class TimedColumnSource final : public stream::PacketColumnSource {
 public:
  TimedColumnSource(stream::PacketColumnSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  const stream::StreamInfo& info() const override { return inner_.info(); }
  bool next(stream::PacketColumns& chunk) override {
    Scope s(tracer_, "ingest.decode");
    return inner_.next(chunk);
  }
  void reset() override { inner_.reset(); }

 private:
  stream::PacketColumnSource& inner_;
  Tracer& tracer_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal "--flag value" reader for this helper's own arguments.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strcmp(argv[i], "--") == 0) {
        rest_ = i + 1;
        break;
      }
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string("missing value for ") +
                                    argv[i]);
      values_[argv[i]] = argv[i + 1];
      ++i;
    }
  }
  std::string str(const char* key) const {
    const auto it = values_.find(key);
    if (it == values_.end())
      throw std::invalid_argument(std::string("missing ") + key);
    return it->second;
  }
  bool has(const char* key) const { return values_.count(key) != 0; }
  double num(const char* key) const { return std::stod(str(key)); }
  int rest() const { return rest_; }

 private:
  std::map<std::string, std::string> values_;
  int rest_ = -1;
};

/// The timestamp a pcap reader decodes for a record written at `time`:
/// PcapFileWriter's microsecond rounding, then the readers' sec + frac.
double decoded_time(double time) {
  std::uint32_t sec = static_cast<std::uint32_t>(time);
  std::uint32_t usec =
      static_cast<std::uint32_t>(std::llround((time - sec) * 1e6));
  if (usec >= 1000000) {
    usec -= 1000000;
    ++sec;
  }
  const double tick = 1e-6;
  return static_cast<double>(sec) + static_cast<double>(usec) * tick;
}

std::string reference_json(std::span<const double> times, double t_begin,
                           double t_end) {
  stats::BinCountsAccumulator bins(t_begin, t_end, 0.1);
  bins.add(times);
  const std::vector<double> counts = bins.take();
  const selfsim::HurstReport report = selfsim::hurst_report(counts);
  return "{\"packets\":" + std::to_string(times.size()) +
         ",\"bins\":" + std::to_string(counts.size()) +
         ",\"report\":" + json_string(report.to_string()) + "}";
}

int cmd_gen(const Args& a) {
  auto cfg = synth::lbl_pkt_preset(
      "BENCH", /*tcp_only=*/true, static_cast<std::uint64_t>(a.num("--seed")));
  cfg.hours = a.num("--hours");
  const bool want_ref = a.has("--ref");
  std::vector<trace::PacketRecord> chunk;
  // Thinning keeps record i of `total` when floor((i + 1) * keep / total)
  // steps up: exactly `keep` records, spread evenly. The synthesizer is
  // deterministic, so a first pass counts what the second one thins.
  std::uint64_t total = 0, keep = 0;
  if (a.has("--max-packets")) {
    synth::StreamingPacketSynthesizer counter(cfg);
    while (counter.next(chunk)) total += chunk.size();
    keep = std::min(total, static_cast<std::uint64_t>(a.num("--max-packets")));
  }
  synth::StreamingPacketSynthesizer src(cfg);
  ingest::PcapRecordEncoder encoder(a.str("--out"));
  std::vector<double> all, telnet;
  std::uint64_t packets = 0;
  double first = 0.0, last = 0.0;
  auto add = [&](const trace::PacketRecord& r) {
    encoder.add(r);
    const double t = decoded_time(r.time);
    if (packets == 0) first = t;
    last = t;
    ++packets;
    if (want_ref) {
      all.push_back(t);
      if (r.protocol == trace::Protocol::kTelnet) telnet.push_back(t);
    }
  };
  // Two marker packets of one SMTP connection pin the capture to the
  // synthesis window [start, start + hours), so every seed gives the
  // same bin count: the estimators' work depends on the series length.
  trace::PacketRecord marker;
  marker.protocol = trace::Protocol::kSmtp;
  marker.conn_id = 0xFFFFFFFFu;
  marker.time = cfg.start_hour * 3600.0;
  add(marker);
  std::uint64_t index = 0;
  while (src.next(chunk))
    for (const trace::PacketRecord& r : chunk) {
      const std::uint64_t i = index++;
      if (keep == total || (i + 1) * keep / total != i * keep / total)
        add(r);
    }
  marker.time = std::max(cfg.start_hour * 3600.0 + cfg.hours * 3600.0 - 1e-6,
                         last);
  add(marker);
  encoder.flush();
  if (want_ref) {
    const double t_end = last + 1e-6;  // readers end one tick past the last
    std::FILE* f = std::fopen(a.str("--ref").c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write --ref");
    std::fprintf(f, "{\"all\":%s,\"telnet\":%s}\n",
                 reference_json(all, first, t_end).c_str(),
                 reference_json(telnet, first, t_end).c_str());
    std::fclose(f);
  }
  std::printf("{\"packets\":%llu,\"t_begin\":%s,\"t_last\":%s}\n",
              static_cast<unsigned long long>(packets),
              json_number(first).c_str(), json_number(last).c_str());
  return 0;
}

std::FILE* open_out(const Args& a) {
  std::FILE* f = std::fopen(a.str("--out").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write --out");
  return f;
}

int cmd_trace_pcap(const Args& a) {
  const std::string cap = a.str("--cap");
  const double seconds = a.num("--seconds");
  par::set_thread_count(1);  // the tool runs with --threads 1
  Tracer tracer;
  std::string jobs, results;
  const std::int64_t t_start = now_ns();
  for (int job = 0; job < 2 || 1e-9 * (now_ns() - t_start) < seconds;
       ++job) {
    const bool telnet = job % 2 == 1;
    stream::PipelineOptions opt;
    opt.bin = 0.1;
    if (telnet) opt.protocol = trace::Protocol::kTelnet;
    const fft::PlanCacheStats c0 = fft::plan_cache_stats();
    const fft::PlanCacheStats r0 = fft::rfft_plan_cache_stats();

    const int root = tracer.begin("job");
    int s = tracer.begin("ingest.open");
    auto src = ingest::open_packet_column_source(
        cap, ingest::IngestFormat::kPcap, ingest::IngestOptions{});
    tracer.end(s);
    TimedColumnSource timed(*src, tracer);
    s = tracer.begin("stream.analyze");
    const stream::PipelineResult result = stream::analyze_columns(timed, opt);
    tracer.end(s);
    s = tracer.begin("selfsim.hurst_report");
    const selfsim::HurstReport report = selfsim::hurst_report(result.counts);
    tracer.end(s);
    s = tracer.begin("selfsim.to_string");
    const std::string text = report.to_string();
    tracer.end(s);
    const ingest::IngestStats stats = src->stats();
    s = tracer.begin("ingest.close");
    src.reset();
    tracer.end(s);
    tracer.end(root);

    const fft::PlanCacheStats c1 = fft::plan_cache_stats();
    const fft::PlanCacheStats r1 = fft::rfft_plan_cache_stats();
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"kind\":\"%s\",\"packets\":%llu,\"bins\":%zu,\"records\":%llu,"
        "\"bytes\":%llu,\"skipped\":%llu,\"plan_hits\":%zu,"
        "\"plan_misses\":%zu}",
        job ? "," : "", telnet ? "telnet" : "all",
        static_cast<unsigned long long>(result.packets), result.counts.size(),
        static_cast<unsigned long long>(stats.records),
        static_cast<unsigned long long>(stats.bytes),
        static_cast<unsigned long long>(stats.skipped_frames +
                                        stats.structural_errors()),
        (c1.hits - c0.hits) + (r1.hits - r0.hits),
        (c1.misses - c0.misses) + (r1.misses - r0.misses));
    jobs += buf;
    if (job < 2) {
      results += std::string(job ? "," : "") + "\"" +
                 (telnet ? "telnet" : "all") + "\":{\"packets\":" +
                 std::to_string(result.packets) +
                 ",\"bins\":" + std::to_string(result.counts.size()) +
                 ",\"report\":" + json_string(text) + "}";
    }
  }
  std::FILE* f = open_out(a);
  std::fprintf(f, "{\"threads\":%zu,\"jobs\":[%s],\"results\":{%s},",
               par::thread_count(), jobs.c_str(), results.c_str());
  tracer.write(f);
  std::fputs("}\n", f);
  std::fclose(f);
  return 0;
}

int cmd_trace_synth(const Args& a) {
  // Same configuration as `wantraffic_synth pkt --binary --stream`.
  auto cfg = synth::lbl_pkt_preset(
      "CLI", /*tcp_only=*/true, static_cast<std::uint64_t>(a.num("--seed")));
  cfg.hours = a.num("--hours");
  const std::string file = a.str("--file");
  const double seconds = a.num("--seconds");
  par::set_thread_count(2);  // the tool runs under WAN_THREADS=2
  Tracer tracer;
  std::string jobs;
  const std::int64_t t_start = now_ns();
  for (int job = 0; job < 1 || 1e-9 * (now_ns() - t_start) < seconds; ++job) {
    const int root = tracer.begin("job");
    int s = tracer.begin("synth.ctor");
    synth::StreamingPacketSynthesizer src(cfg, stream::kDefaultChunkSize);
    tracer.end(s);
    s = tracer.begin("stream.write");
    stream::ChunkedBinaryWriter writer(file, src.info());
    tracer.end(s);
    std::vector<trace::PacketRecord> chunk;
    for (;;) {
      s = tracer.begin("synth.next");
      const bool more = src.next(chunk);
      tracer.end(s);
      if (!more) break;
      s = tracer.begin("stream.write");
      writer.write(chunk);
      tracer.end(s);
    }
    s = tracer.begin("stream.write");
    writer.close();
    tracer.end(s);
    tracer.end(root);
    jobs += std::string(job ? "," : "") + "{\"records\":" +
            std::to_string(writer.count()) + "}";
  }
  std::FILE* f = open_out(a);
  std::fprintf(f, "{\"threads\":%zu,\"jobs\":[%s],", par::thread_count(),
               jobs.c_str());
  tracer.write(f);
  std::fputs("}\n", f);
  std::fclose(f);
  return 0;
}

std::atomic<bool> g_stop{false};
void on_stop(int) { g_stop.store(true, std::memory_order_relaxed); }

/// The capture-derived report fields the check compares with the
/// tool's JSON lines (a subset, so new fields in the tool's schema do
/// not break the comparison).
std::string report_line(const std::string& engine,
                        const stream::WindowReport& r) {
  return "{\"engine\":" + json_string(engine) + ",\"t0\":" +
         json_number(r.t0) + ",\"t1\":" + json_number(r.t1) +
         ",\"packets\":" + std::to_string(r.packets) +
         ",\"mean_count\":" + json_number(r.mean_count) +
         ",\"var_count\":" + json_number(r.var_count) +
         ",\"vt_hurst\":" + json_number(r.vt_hurst) +
         ",\"whittle_hurst\":" + json_number(r.whittle.hurst) + "}";
}

int cmd_trace_follow(int argc, char** argv, const Args& a) {
  if (a.rest() < 0) throw std::invalid_argument("trace-follow needs -- ARGS");
  // argv[rest-1] is "--"; parse_monitor_cli skips its argv[0].
  monitor::MonitorCli cli;
  std::string err;
  if (!monitor::parse_monitor_cli(argc - a.rest() + 1, argv + a.rest() - 1,
                                  cli, err))
    throw std::invalid_argument(err);
  if (cli.follow_path.empty())
    throw std::invalid_argument("trace-follow wants --follow PATH");
  if (cli.threads != 0) par::set_thread_count(cli.threads);
  const monitor::MonitorOptions& opt = cli.options;

  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = on_stop;
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::FILE* rep = std::fopen(a.str("--reports").c_str(), "w");
  if (rep == nullptr) throw std::runtime_error("cannot write --reports");

  Tracer tracer;
  const int root = tracer.begin("follow");
  monitor::TailPcapSource source(cli.follow_path, opt.mode);
  ingest::FlowTable table(opt.flow);
  std::unique_ptr<monitor::EngineMux> mux;
  std::vector<monitor::DriftTracker> trackers;
  std::vector<monitor::MuxReport> scratch;
  std::vector<std::string> lines;
  std::vector<ingest::RawPacket> raw;
  stream::PacketColumns cols;
  std::uint64_t polls = 0, caught_up = 0, packets = 0, rounds = 0,
                reports = 0, open_flows_peak = 0;

  auto drain = [&](int push_span, bool first_round_pending) {
    int s = tracer.begin("monitor.take_reports");
    scratch.clear();
    mux->take_reports(scratch);
    tracer.end(s);
    if (push_span >= 0) {
      tracer.rename(push_span, scratch.empty()
                                   ? "monitor.push_quiet"
                                   : (first_round_pending
                                          ? "monitor.push_first"
                                          : "monitor.push_boundary"));
    }
    for (const monitor::MuxReport& mr : scratch) {
      const std::string& name = mux->engine_name(mr.engine);
      s = tracer.begin("monitor.emit");
      std::fprintf(rep, "%s\n", report_line(name, mr.report).c_str());
      tracer.end(s);
      lines.clear();
      s = tracer.begin("monitor.drift");
      trackers[mr.engine].on_report(mr.report, lines);
      tracer.end(s);
      s = tracer.begin("monitor.emit");
      for (const std::string& line : lines)
        std::fprintf(rep, "# %s\n", line.c_str());
      tracer.end(s);
    }
    reports += scratch.size();
    rounds += scratch.size() / mux->engines();
  };

  while (!g_stop.load(std::memory_order_relaxed)) {
    raw.clear();
    int s = tracer.begin("monitor.poll");
    const monitor::PollStatus status = source.poll(raw, opt.chunk_size);
    tracer.end(s);
    ++polls;
    if (!raw.empty()) {
      cols.clear();
      s = tracer.begin("ingest.flow_add");
      for (const ingest::RawPacket& pkt : raw) table.add_append(pkt, cols);
      tracer.end(s);
      packets += raw.size();
      if (table.open_flows() > open_flows_peak)
        open_flows_peak = table.open_flows();
      if (!cols.time.empty()) {
        if (!mux) {
          s = tracer.begin("monitor.mux_ctor");
          mux = std::make_unique<monitor::EngineMux>(
              opt.window, opt.protocols, cols.time.front());
          for (std::size_t i = 0; i < mux->engines(); ++i)
            trackers.emplace_back(mux->engine_name(i), opt.drift);
          tracer.end(s);
        }
        const int push = tracer.begin("monitor.push");
        mux->push(cols);
        tracer.end(push);
        drain(push, rounds == 0);
      }
    }
    if (status == monitor::PollStatus::kCaughtUp) {
      ++caught_up;
      // The daemon's sleep_slice: short slices until the deadline.
      s = tracer.begin("idle");
      const double secs = opt.poll_interval;
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(secs);
      while (!g_stop.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            secs < 0.05 ? static_cast<long>(secs * 1000.0) + 1 : 50));
      tracer.end(s);
    } else if (status != monitor::PollStatus::kProgress) {
      break;
    }
  }
  if (mux) {
    const int s = tracer.begin("monitor.finish");
    mux->finish(source.max_time_seen() +
                (source.header_ok() ? source.tick() : 0.0));
    tracer.end(s);
    drain(-1, false);
  }
  tracer.end(root);
  std::fclose(rep);

  std::FILE* f = open_out(a);
  std::fprintf(f,
               "{\"threads\":%zu,\"polls\":%llu,\"caught_up\":%llu,"
               "\"packets\":%llu,\"rounds\":%llu,\"reports\":%llu,"
               "\"open_flows_peak\":%llu,\"records\":%llu,",
               par::thread_count(), static_cast<unsigned long long>(polls),
               static_cast<unsigned long long>(caught_up),
               static_cast<unsigned long long>(packets),
               static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(reports),
               static_cast<unsigned long long>(open_flows_peak),
               static_cast<unsigned long long>(source.stats().records));
  tracer.write(f);
  std::fputs("}\n", f);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|trace-pcap|trace-synth|"
                 "trace-follow [--flag value ...] [-- MONITOR ARGS]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args a(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(a);
    if (cmd == "trace-pcap") return cmd_trace_pcap(a);
    if (cmd == "trace-synth") return cmd_trace_synth(a);
    if (cmd == "trace-follow") return cmd_trace_follow(argc, argv, a);
    std::fprintf(stderr, "perfbench_tool: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}

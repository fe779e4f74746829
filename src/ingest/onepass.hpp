// Single-pass speculative analysis: the zero-copy ingest front door.
//
// The streaming pipeline's contract forces every capture source through
// two full decode passes — analyze_columns reads info() (the trace's
// time range) before the first chunk flows, so the constructor prescans
// the whole file just to learn t_begin/t_end. But for a capture in time
// order — the overwhelmingly common case, and one the reader already
// detects exactly (its out_of_order ledger row) — the range is free:
// t_begin is the first packet's timestamp and t_end is the emission
// watermark plus one tick. analyze_pcap_onepass exploits that:
//
//   1. Open the source with Prescan::kDeferred (no prescan pass).
//   2. Stream it through the same filter stack analyze_columns builds,
//      binning counts into a SpeculativeBinCounts anchored at the first
//      packet's time — the same t0, bin width and quotient arithmetic
//      the fixed-grid accumulator would use.
//   3. At EOF, check the speculation: no out-of-order packet (so the
//      first packet really was the minimum), a representable grid edge,
//      and a grown bin vector no longer than the fixed grid. All good —
//      finish the result right there, one decode pass total.
//   4. Any check fails — fall back: rewind, run the prescan the
//      constructor skipped, and delegate to analyze_columns. The
//      fallback costs one extra pass over the rare capture that needs
//      it; it never changes a byte of the result.
//
// Either way the returned PipelineResult is bit-identical to
// analyze_columns over an eagerly-prescanned source (the `ingest`
// tests pin both branches). Every serial whole-stream pcap run of
// wantraffic_analyze is this function. This lives in src/ingest, not
// src/stream: the speculation needs the concrete PcapColumnSource (its
// deferred mode and ordering watermark), and ingest already layers
// above stream.
#pragma once

#include "src/ingest/sources.hpp"
#include "src/stream/pipeline.hpp"

namespace wan::ingest {

/// Analyzes `source` (constructed with Prescan::kDeferred) in a single
/// decode pass when the capture allows it, falling back to the
/// two-pass analyze_columns path when it does not. Also accepts an
/// eager source, which just delegates to analyze_columns. Throws
/// std::invalid_argument ("series too short") exactly when the eager
/// path would, though at end of stream rather than up front.
stream::PipelineResult analyze_pcap_onepass(
    PcapColumnSource& source, const stream::PipelineOptions& options = {});

}  // namespace wan::ingest

#include "src/stream/columnar_filters.hpp"

#include <utility>

namespace wan::stream {

namespace {

std::string filter_suffix(const std::optional<trace::Protocol>& protocol,
                          bool orig_data) {
  // The suffixes the batch filters would stack, in their stacking order.
  std::string s;
  if (protocol) {
    s += '/';
    s += trace::to_string(*protocol);
  }
  if (orig_data) s += "/orig-data";
  return s;
}

}  // namespace

ColumnFilterSource::ColumnFilterSource(PacketColumnSource& inner,
                                       std::optional<trace::Protocol> protocol,
                                       bool orig_data)
    : inner_(&inner),
      info_{inner.info().name + filter_suffix(protocol, orig_data),
            inner.info().t_begin, inner.info().t_end},
      protocol_(protocol),
      orig_data_(orig_data) {}

bool ColumnFilterSource::next(PacketColumns& chunk) {
  chunk.clear();
  while (chunk.empty()) {
    if (!inner_->next(buf_)) return false;
    sel_.clear();
    if (protocol_ && orig_data_) {
      select_protocol_orig_data(buf_, *protocol_, sel_);
    } else if (protocol_) {
      select_equal(buf_.protocol, *protocol_, sel_);
    } else if (orig_data_) {
      select_orig_data(buf_, sel_);
    } else {
      // No predicate configured: pass through.
      chunk = std::move(buf_);
      buf_.clear();
      return true;
    }
    if (sel_.size() == buf_.size()) {
      // Everything survived: move the chunk through instead of gathering.
      chunk = std::move(buf_);
      buf_.clear();
      return true;
    }
    gather(buf_, sel_, chunk);
  }
  return true;
}

ColumnFilterSource protocol_filter_columns(PacketColumnSource& inner,
                                           trace::Protocol protocol) {
  return ColumnFilterSource(inner, protocol, /*orig_data=*/false);
}

ColumnFilterSource originator_data_filter_columns(PacketColumnSource& inner) {
  return ColumnFilterSource(inner, std::nullopt, /*orig_data=*/true);
}

ColumnBulkOutlierSource::ColumnBulkOutlierSource(PacketColumnSource& inner,
                                                 double max_bytes,
                                                 double max_rate)
    : inner_(&inner),
      info_{inner.info().name + "/no-outliers", inner.info().t_begin,
            inner.info().t_end},
      max_bytes_(max_bytes),
      max_rate_(max_rate) {}

void ColumnBulkOutlierSource::scan_outliers() {
  trace::BulkOutlierDetector det(max_bytes_, max_rate_);
  while (inner_->next(buf_)) {
    // The detector aggregates per connection from (time, conn, orig,
    // payload); rows are observed in order, as the batch method does.
    for (std::size_t i = 0; i < buf_.size(); ++i) det.observe(buf_.row(i));
  }
  outliers_ = det.outliers();
  inner_->reset();
  scanned_ = true;
}

bool ColumnBulkOutlierSource::next(PacketColumns& chunk) {
  if (!scanned_) scan_outliers();
  chunk.clear();
  while (chunk.empty()) {
    if (!inner_->next(buf_)) return false;
    if (outliers_.empty()) {
      chunk = std::move(buf_);
      buf_.clear();
      return true;
    }
    sel_.clear();
    sel_.resize(buf_.size());
    std::size_t k = 0;
    const std::uint32_t* conn = buf_.conn_id.data();
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      sel_[k] = static_cast<std::uint32_t>(i);
      k += outliers_.contains(conn[i]) ? 0 : 1;
    }
    sel_.resize(k);
    if (sel_.size() == buf_.size()) {
      chunk = std::move(buf_);
      buf_.clear();
      return true;
    }
    gather(buf_, sel_, chunk);
  }
  return true;
}

void ColumnBulkOutlierSource::reset() {
  // The outlier set is a function of the (replayable) upstream, so a
  // second pass reuses it rather than rescanning.
  inner_->reset();
}

}  // namespace wan::stream

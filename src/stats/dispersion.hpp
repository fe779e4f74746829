// Index of dispersion for counts (IDC) — the burstiness measure of the
// pre-self-similarity literature (Fowler & Leland [18] characterized
// congestion with IDC curves). Section VII's
// point in these terms: for Poisson traffic IDC(t) is flat at 1; for
// long-range dependent traffic it grows without bound as t^(2H-1).
#pragma once

#include <span>
#include <vector>

namespace wan::stats {

struct DispersionPoint {
  double t = 0.0;      ///< window length (in base-bin units)
  double index = 0.0;  ///< IDC(t)
};

/// IDC(t) = Var[N(t)] / E[N(t)] evaluated at log-spaced window sizes
/// (multiples of the base bin). `counts` is the base count series.
std::vector<DispersionPoint> idc_curve(std::span<const double> counts,
                                       std::size_t max_windows = 30);

/// Log-log slope of the IDC curve's upper half; ~0 for Poisson,
/// ~2H-1 > 0 for LRD traffic.
double idc_slope(std::span<const DispersionPoint> curve);

}  // namespace wan::stats

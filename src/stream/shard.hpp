// Flow-hash shard assignment for per-shard synthesis.
//
// A trace is partitioned by connection: every packet of a connection
// lands in the shard selected by a fixed mix of its conn id, so
// per-connection computations (the bulk-outlier detector, flow state)
// stay shard-local while per-bin computations (count accumulation) are
// exact integer adds that merge across shards bit-for-bit. The shard
// assignment is a pure function of the record and the shard count —
// never of the thread count or scheduling — and analyze_sharded_sources
// reduces the per-shard bin grids in fixed shard order, so a sharded
// run at ANY thread count emits the same bytes as the serial path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wan::stream {

/// splitmix64 finalizer: the bit mix shard assignment runs on keys.
/// Decorrelates shard choice from conn-id assignment order, so dense
/// sequential ids spread evenly at any shard count.
inline std::uint64_t shard_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shard of a packet: a pure function of (conn_id, n_shards).
inline std::size_t shard_of(std::uint32_t conn_id,
                            std::size_t n_shards) noexcept {
  return static_cast<std::size_t>(shard_mix(conn_id) %
                                  static_cast<std::uint64_t>(n_shards));
}

}  // namespace wan::stream

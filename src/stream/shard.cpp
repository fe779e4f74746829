#include "src/stream/shard.hpp"

#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/par/parallel.hpp"

namespace wan::stream {

void partition_packets(const PacketColumns& in, std::size_t n_shards,
                       std::vector<PacketColumns>& out) {
  out.resize(n_shards);
  for (PacketColumns& o : out) o.clear();
  if (n_shards == 1) {
    out[0] = in;
    return;
  }
  // Shard ids once (one mix per row), then one select+gather per shard —
  // the same two-phase selection idiom as the columnar filters.
  std::vector<std::uint32_t> ids(in.size());
  const std::uint32_t* conn = in.conn_id.data();
  for (std::size_t i = 0; i < in.size(); ++i)
    ids[i] = static_cast<std::uint32_t>(shard_of(conn[i], n_shards));
  std::vector<std::uint32_t> sel;
  for (std::size_t s = 0; s < n_shards; ++s) {
    sel.clear();
    for (std::size_t i = 0; i < ids.size(); ++i)
      if (ids[i] == s) sel.push_back(static_cast<std::uint32_t>(i));
    if (sel.empty()) continue;
    gather(in, sel, out[s]);
  }
}

ShardRouter::ShardRouter(ShardRouterOptions options) : options_(options) {
  if (options_.n_shards == 0 || options_.n_shards > kMaxShards)
    throw std::invalid_argument("ShardRouter: n_shards must be in [1, " +
                                std::to_string(kMaxShards) + "]");
}

// Inline when a single worker (or a single shard) makes queues
// pointless, bounded queues + one consumer thread per shard otherwise.
// The per-shard sub-chunk sequences are identical either way: partition
// is deterministic and each shard's queue preserves order.
void ShardRouter::route(
    PacketColumnSource& source,
    const std::function<void(std::size_t, const PacketColumns&)>& consume) {
  const std::size_t n = options_.n_shards;
  if (n == 1) {
    PacketColumns chunk;
    while (source.next(chunk))
      if (!chunk.empty()) consume(0, chunk);
    return;
  }

  if (par::thread_count() == 1) {
    PacketColumns chunk;
    std::vector<PacketColumns> parts;
    while (source.next(chunk)) {
      partition_packets(chunk, n, parts);
      for (std::size_t s = 0; s < n; ++s)
        if (!parts[s].empty()) consume(s, parts[s]);
    }
    return;
  }

  std::vector<std::unique_ptr<BoundedChunkQueue<PacketColumns>>> queues;
  queues.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    queues.push_back(std::make_unique<BoundedChunkQueue<PacketColumns>>(
        options_.queue_chunks));

  // One consumer thread per shard. Dedicated threads, not pool tasks: a
  // consumer task still queued on the pool could be picked up by the
  // pump itself while it helps drain the pool inside a parallel region
  // of the upstream source (sharded flow reconstruction has one), and a
  // consumer run on the pump's thread waits forever for chunks only the
  // pump can push.
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> consumers;
  consumers.reserve(n);
  const auto stop = [&] {
    for (auto& q : queues) q->close();
    for (auto& t : consumers) t.join();
  };
  try {
    for (std::size_t s = 0; s < n; ++s) {
      consumers.emplace_back([&, s] {
        PacketColumns c;
        try {
          while (queues[s]->pop(c)) consume(s, c);
        } catch (...) {
          errors[s] = std::current_exception();
          // Keep draining (close makes push a drop) so the pump never
          // blocks on a queue nobody reads.
          queues[s]->close();
          while (queues[s]->pop(c)) {
          }
        }
      });
    }
    PacketColumns chunk;
    std::vector<PacketColumns> parts;
    while (source.next(chunk)) {
      partition_packets(chunk, n, parts);
      for (std::size_t s = 0; s < n; ++s)
        if (!parts[s].empty()) queues[s]->push(std::move(parts[s]));
    }
  } catch (...) {
    stop();
    throw;
  }
  stop();
  for (std::size_t s = 0; s < n; ++s)
    if (errors[s]) std::rethrow_exception(errors[s]);
}

}  // namespace wan::stream

#ifndef DKINDEX_INDEX_PARALLEL_REFINE_H_
#define DKINDEX_INDEX_PARALLEL_REFINE_H_

// The parallel partition-refinement engine. Each refinement round computes
// per-node signatures (previous block, sorted set of previous parent
// blocks) in parallel over contiguous node chunks — every signature depends
// only on the *previous* round's partition, so nodes are independent within
// a round (the scheme of Rau/Richerby/Scherp's parallel k-bisimulation
// algorithm; see docs/ALGORITHMS.md, "Parallel construction").
//
// Block ids are assigned by a deterministic reduction: each chunk builds a
// local signature table recording first-appearance order, and the tables
// are merged *in chunk-index order*. Because chunks are contiguous and
// merged in order, "first appearance across the merge" equals "first
// appearance in the sequential node scan" — the parallel engine therefore
// produces the IDENTICAL Partition to RefineOnce, block numbering included,
// for any thread or chunk count. Tests assert bitwise equality, not just
// equality up to renumbering.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "index/partition.h"

namespace dki {

// Parallel counterpart of RefineOnce: splits every block `b` of `prev` with
// refine_block[b] set. Work is O(sum of refined degrees) plus one global
// hash insert per distinct signature per chunk. A 1-lane pool delegates to
// the sequential engine outright.
template <typename GraphT>
Partition ParallelRefineOnce(const GraphT& g, const Partition& prev,
                             const std::vector<bool>& refine_block,
                             ThreadPool& pool) {
  if (pool.num_threads() <= 1) return RefineOnce(g, prev, refine_block);
  DKI_CHECK_EQ(static_cast<int64_t>(prev.block_of.size()), g.NumNodes());
  DKI_CHECK_EQ(static_cast<int32_t>(refine_block.size()), prev.num_blocks);

  const int64_t n = g.NumNodes();
  const int num_chunks = pool.NumChunks(n);

  // Per-chunk signature table. `order` holds pointers into the map's keys
  // (stable under rehash — unordered_map never moves elements) in
  // first-appearance order; `local_of[i]` is the local id of node begin+i.
  struct ChunkTable {
    std::unordered_map<std::vector<int32_t>, int32_t, internal::VecHash> ids;
    std::vector<const std::vector<int32_t>*> order;
    std::vector<int32_t> local_of;
  };
  std::vector<ChunkTable> chunks(static_cast<size_t>(num_chunks));

  // Phase 1 (parallel): per-node signatures into per-chunk tables.
  pool.ParallelFor(n, num_chunks, [&](int c, int64_t begin, int64_t end) {
    ChunkTable& table = chunks[static_cast<size_t>(c)];
    table.local_of.resize(static_cast<size_t>(end - begin));
    std::vector<int32_t> key;
    for (int64_t node = begin; node < end; ++node) {
      int32_t b = prev.block_of[static_cast<size_t>(node)];
      key.clear();
      if (!refine_block[static_cast<size_t>(b)]) {
        key.push_back(-1);  // untouched block: identity signature
        key.push_back(b);
      } else {
        internal::AppendRefineSignature(g, prev.block_of,
                                        static_cast<int32_t>(node), &key);
      }
      auto [it, inserted] = table.ids.emplace(
          key, static_cast<int32_t>(table.order.size()));
      if (inserted) table.order.push_back(&it->first);
      table.local_of[static_cast<size_t>(node - begin)] = it->second;
    }
  });

  // Phase 2 (sequential, chunk order): assign global block ids in merge
  // order — this is what makes the numbering reproduce the sequential scan.
  Partition next;
  next.block_of.assign(static_cast<size_t>(n), -1);
  std::unordered_map<std::vector<int32_t>, int32_t, internal::VecHash>
      global_ids;
  global_ids.reserve(static_cast<size_t>(prev.num_blocks) * 2);
  std::vector<std::vector<int32_t>> remap(static_cast<size_t>(num_chunks));
  for (int c = 0; c < num_chunks; ++c) {
    const ChunkTable& table = chunks[static_cast<size_t>(c)];
    std::vector<int32_t>& local_to_global = remap[static_cast<size_t>(c)];
    local_to_global.resize(table.order.size());
    for (size_t local = 0; local < table.order.size(); ++local) {
      const std::vector<int32_t>& sig = *table.order[local];
      auto [it, inserted] = global_ids.emplace(sig, next.num_blocks);
      if (inserted) {
        ++next.num_blocks;
        // The previous block is sig[1] for identity signatures {-1, b},
        // else sig[0]; its label is the new block's label.
        int32_t b = sig[0] == -1 ? sig[1] : sig[0];
        next.block_label.push_back(prev.block_label[static_cast<size_t>(b)]);
      }
      local_to_global[local] = it->second;
    }
  }

  // Phase 3 (parallel): translate local ids. Same (total, num_chunks) →
  // identical chunk boundaries as phase 1.
  pool.ParallelFor(n, num_chunks, [&](int c, int64_t begin, int64_t end) {
    const ChunkTable& table = chunks[static_cast<size_t>(c)];
    const std::vector<int32_t>& local_to_global =
        remap[static_cast<size_t>(c)];
    for (int64_t node = begin; node < end; ++node) {
      next.block_of[static_cast<size_t>(node)] = local_to_global
          [static_cast<size_t>(table.local_of[static_cast<size_t>(node - begin)])];
    }
  });
  return next;
}

}  // namespace dki

#endif  // DKINDEX_INDEX_PARALLEL_REFINE_H_

#ifndef DKINDEX_INDEX_PARTITION_H_
#define DKINDEX_INDEX_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "graph/data_graph.h"

namespace dki {

// A partition of the nodes of some graph into dense blocks [0, num_blocks).
// Every block is label-homogeneous; `block_label` records the common label.
struct Partition {
  std::vector<int32_t> block_of;  // node -> block
  int32_t num_blocks = 0;
  std::vector<LabelId> block_label;

  bool operator==(const Partition&) const = default;

  std::vector<int64_t> BlockSizes() const {
    std::vector<int64_t> sizes(static_cast<size_t>(num_blocks), 0);
    for (int32_t b : block_of) ++sizes[static_cast<size_t>(b)];
    return sizes;
  }
};

namespace internal {

struct VecHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (int32_t x : v) {
      h ^= static_cast<size_t>(static_cast<uint32_t>(x));
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

// Writes node `n`'s refinement signature — (previous block, sorted set of
// previous parent blocks) — into *key. The single definition shared by
// RefineOnce, ParallelRefineOnce, and the incremental re-refinement engine
// (dk_incremental.cc): the incremental path matches freshly computed
// signatures against traced ones, so all three must byte-agree.
template <typename GraphT>
void AppendRefineSignature(const GraphT& g, const std::vector<int32_t>& prev_block_of,
                           int32_t n, std::vector<int32_t>* key) {
  key->push_back(prev_block_of[static_cast<size_t>(n)]);
  size_t prefix = key->size();
  for (int32_t par : g.parents(n)) {
    key->push_back(prev_block_of[static_cast<size_t>(par)]);
  }
  std::sort(key->begin() + prefix, key->end());
  key->erase(std::unique(key->begin() + prefix, key->end()), key->end());
}

}  // namespace internal

// The 0-bisimulation partition: nodes grouped by label. This is the paper's
// "label-split index graph", the starting point of all constructions.
template <typename GraphT>
Partition LabelSplit(const GraphT& g) {
  Partition p;
  p.block_of.assign(static_cast<size_t>(g.NumNodes()), -1);
  std::unordered_map<LabelId, int32_t> block_of_label;
  for (int64_t n = 0; n < g.NumNodes(); ++n) {
    LabelId l = g.label(static_cast<int32_t>(n));
    auto [it, inserted] = block_of_label.emplace(l, p.num_blocks);
    if (inserted) {
      ++p.num_blocks;
      p.block_label.push_back(l);
    }
    p.block_of[static_cast<size_t>(n)] = it->second;
  }
  return p;
}

// One refinement round: computes the (k+1)-bisimulation split of every block
// `b` of `prev` with refine_block[b] set, leaving other blocks untouched.
// A refined block groups nodes by the signature
//     (previous block, sorted set of previous parent blocks),
// which is exactly the fixpoint of the paper's Succ-splitting loop
// (Algorithm 2's inner loop) for one value of k. O(sum of refined degrees).
template <typename GraphT>
Partition RefineOnce(const GraphT& g, const Partition& prev,
                     const std::vector<bool>& refine_block) {
  DKI_CHECK_EQ(static_cast<int64_t>(prev.block_of.size()), g.NumNodes());
  DKI_CHECK_EQ(static_cast<int32_t>(refine_block.size()), prev.num_blocks);

  Partition next;
  next.block_of.assign(static_cast<size_t>(g.NumNodes()), -1);
  std::unordered_map<std::vector<int32_t>, int32_t, internal::VecHash> ids;
  ids.reserve(static_cast<size_t>(prev.num_blocks) * 2);

  std::vector<int32_t> key;
  for (int64_t n = 0; n < g.NumNodes(); ++n) {
    int32_t b = prev.block_of[static_cast<size_t>(n)];
    key.clear();
    if (!refine_block[static_cast<size_t>(b)]) {
      // Untouched block: identity signature.
      key.push_back(-1);
      key.push_back(b);
    } else {
      internal::AppendRefineSignature(g, prev.block_of,
                                      static_cast<int32_t>(n), &key);
    }
    auto [it, inserted] = ids.emplace(key, next.num_blocks);
    if (inserted) {
      ++next.num_blocks;
      next.block_label.push_back(prev.block_label[static_cast<size_t>(b)]);
    }
    next.block_of[static_cast<size_t>(n)] = it->second;
  }
  return next;
}

// Renumbers `p`'s blocks in first-appearance order over the node scan, the
// numbering LabelSplit and RefineOnce produce. Engines that allocate ids in
// another order call this before IndexGraph::FromPartition, so that equal
// partitions are equal as values. O(nodes).
void RenumberByFirstAppearance(Partition* p);

}  // namespace dki

#endif  // DKINDEX_INDEX_PARTITION_H_

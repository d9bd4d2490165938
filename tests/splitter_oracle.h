#ifndef DKINDEX_TESTS_SPLITTER_ORACLE_H_
#define DKINDEX_TESTS_SPLITTER_ORACLE_H_

// The independent coarsest-partition oracle for the 1-index: a splitter
// worklist in the manner of Paige & Tarjan, sharing no code with the
// library's round loop (BuildDkPartition). Test-only: on XMark and NASA it
// was slower than the sequential fixpoint loop, so the library does not
// ship it.

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "graph/data_graph.h"
#include "index/partition.h"

namespace dki {
namespace testing_util {

// The coarsest partition of `g`'s nodes that (a) refines the label split and
// (b) is *stable*: for blocks B, A either B ⊆ Succ(A) or B ∩ Succ(A) = ∅.
// That is the full-bisimulation partition of the 1-index (Milo & Suciu).
// Pop a splitter block S, split every block against Succ(S), requeue the new
// halves. Both halves are requeued instead of keeping Paige-Tarjan's
// compound blocks: O(nm) in the worst case, fine at test sizes. The result
// is renumbered in first-appearance order, so it compares with == against
// the library's partitions.
inline Partition CoarsestStablePartition(const DataGraph& g) {
  const int64_t n = g.NumNodes();
  std::vector<std::vector<NodeId>> blocks;
  std::vector<LabelId> block_label;
  std::vector<int32_t> block_of(static_cast<size_t>(n), -1);
  {
    std::unordered_map<LabelId, int32_t> by_label;
    for (NodeId v = 0; v < n; ++v) {
      auto [it, inserted] =
          by_label.emplace(g.label(v), static_cast<int32_t>(blocks.size()));
      if (inserted) {
        blocks.emplace_back();
        block_label.push_back(g.label(v));
      }
      blocks[static_cast<size_t>(it->second)].push_back(v);
      block_of[static_cast<size_t>(v)] = it->second;
    }
  }

  std::deque<int32_t> worklist;
  std::vector<bool> queued(blocks.size(), true);
  for (size_t b = 0; b < blocks.size(); ++b) {
    worklist.push_back(static_cast<int32_t>(b));
  }
  std::vector<int64_t> touched_count;  // per block, nodes seen in Succ(S)
  std::vector<bool> is_succ(static_cast<size_t>(n), false);

  while (!worklist.empty()) {
    const int32_t s = worklist.front();
    worklist.pop_front();
    queued[static_cast<size_t>(s)] = false;

    // Mark Succ(S) and collect the blocks it intersects.
    std::vector<NodeId> succ;
    for (NodeId u : blocks[static_cast<size_t>(s)]) {
      for (NodeId v : g.children(u)) {
        if (!is_succ[static_cast<size_t>(v)]) {
          is_succ[static_cast<size_t>(v)] = true;
          succ.push_back(v);
        }
      }
    }
    touched_count.assign(blocks.size(), 0);
    std::vector<int32_t> touched_blocks;
    for (NodeId v : succ) {
      const int32_t b = block_of[static_cast<size_t>(v)];
      if (touched_count[static_cast<size_t>(b)]++ == 0) {
        touched_blocks.push_back(b);
      }
    }

    // Split each partially covered block into (inside Succ, outside Succ).
    for (int32_t b : touched_blocks) {
      auto& members = blocks[static_cast<size_t>(b)];
      const int64_t inside = touched_count[static_cast<size_t>(b)];
      if (inside == static_cast<int64_t>(members.size())) continue;  // stable
      std::vector<NodeId> in_part, out_part;
      for (NodeId v : members) {
        (is_succ[static_cast<size_t>(v)] ? in_part : out_part).push_back(v);
      }
      const int32_t b2 = static_cast<int32_t>(blocks.size());
      members = std::move(in_part);
      blocks.push_back(std::move(out_part));
      block_label.push_back(block_label[static_cast<size_t>(b)]);
      for (NodeId v : blocks.back()) block_of[static_cast<size_t>(v)] = b2;
      queued.push_back(true);
      worklist.push_back(b2);
      if (!queued[static_cast<size_t>(b)]) {
        queued[static_cast<size_t>(b)] = true;
        worklist.push_back(b);
      }
    }
    for (NodeId v : succ) is_succ[static_cast<size_t>(v)] = false;
  }

  Partition p;
  p.block_of = std::move(block_of);
  p.num_blocks = static_cast<int32_t>(blocks.size());
  p.block_label = std::move(block_label);
  RenumberByFirstAppearance(&p);
  return p;
}

}  // namespace testing_util
}  // namespace dki

#endif  // DKINDEX_TESTS_SPLITTER_ORACLE_H_

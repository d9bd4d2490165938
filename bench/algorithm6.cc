#include "bench/algorithm6.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace dki {
namespace bench {

namespace {

// One in-flight promotion of the explicit worklist below. Mirrors a stack
// frame of the natural recursive formulation of Algorithm 6.
struct PromoteFrame {
  IndexNodeId v = 0;
  int k_target = 0;
  bool entered = false;
  size_t next_parent = 0;
  std::vector<IndexNodeId> parents = {};  // the parents left to promote
};

}  // namespace

void Promote(IndexGraph* index, IndexNodeId v, int k_target) {
  // Algorithm 6 is naturally recursive — promoting v first promotes its
  // parents to k_target - 1 — but parent chains can be as long as the graph
  // (a path graph promoted to k ~ N), so the recursion is run on an explicit
  // stack. A frame does, in order: (entry) give up if v already meets the
  // target, else snapshot the parent list; (descend) promote each
  // snapshotted parent in order, skipping self-loops; (re-check) promote
  // every CURRENT parent still below k_target - 1, then re-check again —
  // a deeper frame at a lower target can split a parent that v shares with
  // it (a common ancestor), and the parts it splits off are new parents of
  // v that keep that lower target; (post-order) split extent(v) by the
  // members' now-promoted parent index nodes — SplitByParentSignature's
  // full-parent-signature grouping is the paper's sequential V ∩ Succ(W) /
  // V − Succ(W) splitting — and stamp every part with k_target. The
  // post-order step deliberately has no re-check of k(v): inner targets
  // strictly decrease, so no descendant promotion can have raised v to its
  // target in the meantime. The re-checks end: a promotion only raises k,
  // and only splits nodes below its target, of which there are finitely
  // many.
  std::vector<PromoteFrame> stack;
  stack.push_back({v, k_target});
  while (!stack.empty()) {
    PromoteFrame& f = stack.back();
    if (!f.entered) {
      if (index->k(f.v) >= f.k_target) {
        stack.pop_back();
        continue;
      }
      f.entered = true;
      if (f.k_target >= 1) f.parents = index->parents(f.v);
    }
    bool descended = false;
    while (f.next_parent < f.parents.size()) {
      IndexNodeId w = f.parents[f.next_parent++];
      if (w == f.v) continue;  // self-loop: v itself is being promoted
      stack.push_back({w, f.k_target - 1});
      descended = true;
      break;
    }
    if (descended) continue;  // f may be a dangling reference now
    if (f.k_target >= 1) {
      f.parents.clear();
      f.next_parent = 0;
      for (IndexNodeId w : index->parents(f.v)) {
        if (w != f.v && index->k(w) < f.k_target - 1) f.parents.push_back(w);
      }
      if (!f.parents.empty()) continue;
    }
    std::vector<IndexNodeId> parts = index->SplitByParentSignature(f.v);
    if (parts.size() > 1) index->RecomputeEdgesLocal(parts);
    for (IndexNodeId part : parts) index->set_k(part, f.k_target);
    stack.pop_back();
  }
}

void PromoteLabel(IndexGraph* index, LabelId label, int k_target) {
  // Promotions split nodes of this label into further nodes of the same
  // label, and SplitOff appends every new node to the label's bucket in id
  // order — so one growing-cursor pass over the bucket visits every node of
  // the label that ever exists during this promotion. The bucket reference
  // is re-fetched each iteration: Promote can grow the bucket and
  // reallocate its storage.
  for (size_t cursor = 0; cursor < index->NodesWithLabel(label).size();
       ++cursor) {
    IndexNodeId i = index->NodesWithLabel(label)[cursor];
    if (index->k(i) < k_target) Promote(index, i, k_target);
  }
}

void PromoteBatch(IndexGraph* index, const LabelRequirements& targets) {
  // The paper's heuristic: promote higher similarities first, so the
  // ancestor upgrades they trigger are shared by later, lower promotions.
  std::vector<std::pair<LabelId, int>> order(targets.begin(), targets.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (const auto& [label, k_target] : order) {
    PromoteLabel(index, label, k_target);
  }
}

}  // namespace bench
}  // namespace dki

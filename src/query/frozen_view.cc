#include "query/frozen_view.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace dki {
namespace {

int MaskWords(int num_states) { return (num_states + 63) / 64; }

// The scratch of evaluations given none: one per thread, for the thread's
// life, so a call pays no O(|V| + |M|) set-up.
FrozenScratch& ThreadScratch() {
  thread_local FrozenScratch scratch;
  return scratch;
}

// Grows a generation-stamped array to `n` slots. New slots read 0, older
// than any live generation (generations start at 1 and never reset).
template <typename T>
void GrowTo(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
}

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

// Per-plan evaluation latency: one histogram per backend, named
// serve.eval.backend.<name>.latency_ns and resolved once. Its count is the
// backend's call count.
Histogram& BackendLatency(EvalBackend backend) {
  static const std::array<Histogram*, kNumEvalBackends> table = [] {
    std::array<Histogram*, kNumEvalBackends> t{};
    for (int b = 0; b < kNumEvalBackends; ++b) {
      t[static_cast<size_t>(b)] = &MetricsRegistry::Global().GetHistogram(
          std::string("serve.eval.backend.") +
          EvalBackendName(static_cast<EvalBackend>(b)) + ".latency_ns");
    }
    return t;
  }();
  return *table[static_cast<size_t>(backend)];
}

}  // namespace

// ---------------------------------------------------------------------------
// FrozenView construction
// ---------------------------------------------------------------------------

FrozenView::FrozenView(const IndexGraph& index,
                       const FrozenViewOptions& options)
    : epoch_(index.epoch()),
      num_labels_(static_cast<int32_t>(index.graph().labels().size())),
      prefilter_(options.prefilter) {
  const DataGraph& g = index.graph();
  const int64_t n = g.NumNodes();
  const int64_t m = index.NumIndexNodes();

  // Data graph: labels + parent rows as CSR (validation's reverse walk).
  data_label_.resize(static_cast<size_t>(n));
  data_parent_off_.resize(static_cast<size_t>(n) + 1);
  data_parent_.reserve(static_cast<size_t>(g.NumEdges()));
  data_parent_off_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    data_label_[static_cast<size_t>(v)] = g.label(v);
    const auto& p = g.parents(v);
    data_parent_.insert(data_parent_.end(), p.begin(), p.end());
    data_parent_off_[static_cast<size_t>(v) + 1] =
        CheckedInt32(data_parent_.size());
  }

  // Index graph: labels, k, both adjacency directions, extents CSR.
  index_label_.resize(static_cast<size_t>(m));
  index_k_.resize(static_cast<size_t>(m));
  index_child_off_.resize(static_cast<size_t>(m) + 1);
  index_parent_off_.resize(static_cast<size_t>(m) + 1);
  extent_off_.resize(static_cast<size_t>(m) + 1);
  extent_.reserve(static_cast<size_t>(n));
  index_child_off_[0] = 0;
  index_parent_off_[0] = 0;
  extent_off_[0] = 0;
  for (IndexNodeId i = 0; i < m; ++i) {
    index_label_[static_cast<size_t>(i)] = index.label(i);
    index_k_[static_cast<size_t>(i)] = index.k(i);
    const auto& c = index.children(i);
    index_child_.insert(index_child_.end(), c.begin(), c.end());
    index_child_off_[static_cast<size_t>(i) + 1] =
        CheckedInt32(index_child_.size());
    const auto& p = index.parents(i);
    index_parent_.insert(index_parent_.end(), p.begin(), p.end());
    index_parent_off_[static_cast<size_t>(i) + 1] =
        CheckedInt32(index_parent_.size());
    const auto& e = index.extent(i);
    extent_.insert(extent_.end(), e.begin(), e.end());
    extent_off_[static_cast<size_t>(i) + 1] = CheckedInt32(extent_.size());
  }

  // Label -> index nodes, flattened from the index's bucket form.
  index_bylabel_off_.resize(static_cast<size_t>(num_labels_) + 1);
  index_bylabel_.reserve(static_cast<size_t>(m));
  index_bylabel_off_[0] = 0;
  for (LabelId l = 0; l < num_labels_; ++l) {
    const auto& bucket = index.NodesWithLabel(l);
    index_bylabel_.insert(index_bylabel_.end(), bucket.begin(), bucket.end());
    index_bylabel_off_[static_cast<size_t>(l) + 1] =
        CheckedInt32(index_bylabel_.size());
  }
}

int64_t FrozenView::ApproxBytes() const {
  return VectorBytes(data_label_) + VectorBytes(data_parent_off_) +
         VectorBytes(data_parent_) + VectorBytes(index_label_) +
         VectorBytes(index_k_) + VectorBytes(index_child_off_) +
         VectorBytes(index_child_) + VectorBytes(index_parent_off_) +
         VectorBytes(index_parent_) + VectorBytes(extent_off_) +
         VectorBytes(extent_) + VectorBytes(index_bylabel_off_) +
         VectorBytes(index_bylabel_);
}

// ---------------------------------------------------------------------------
// FrozenScratch
// ---------------------------------------------------------------------------

void FrozenScratch::BeginIndexTraversal(int64_t num_index_nodes,
                                        int num_states) {
  const size_t m = static_cast<size_t>(num_index_nodes);
  // Mask words are zeroed on a node's first visit per generation, so a new
  // mask width needs room, never a wipe.
  index_words_ = MaskWords(num_states);
  GrowTo(&index_masks_, m * static_cast<size_t>(index_words_));
  GrowTo(&index_mask_gen_, m);
  GrowTo(&accept_depth_, m);
  GrowTo(&accept_gen_, m);
  ++index_gen_;
  cur_.clear();
  next_.clear();
  matched_.clear();
}

void FrozenScratch::BeginDataTraversal(int64_t num_data_nodes,
                                       int num_states) {
  const size_t n = static_cast<size_t>(num_data_nodes);
  data_words_ = MaskWords(num_states);
  GrowTo(&data_masks_, n * static_cast<size_t>(data_words_));
  GrowTo(&data_mask_gen_, n);
  ++data_gen_;
  cur_.clear();
  next_.clear();
}

bool FrozenScratch::InsertIndexVisit(int32_t node, int32_t state) {
  const size_t i = static_cast<size_t>(node);
  const size_t base = i * static_cast<size_t>(index_words_);
  if (index_mask_gen_[i] != index_gen_) {
    index_mask_gen_[i] = index_gen_;
    for (int w = 0; w < index_words_; ++w) {
      index_masks_[base + static_cast<size_t>(w)] = 0;
    }
  }
  uint64_t& word = index_masks_[base + static_cast<size_t>(state >> 6)];
  const uint64_t bit = uint64_t{1} << (state & 63);
  if (word & bit) return false;
  word |= bit;
  return true;
}

bool FrozenScratch::InsertDataVisit(int32_t node, int32_t state) {
  const size_t i = static_cast<size_t>(node);
  const size_t base = i * static_cast<size_t>(data_words_);
  if (data_mask_gen_[i] != data_gen_) {
    data_mask_gen_[i] = data_gen_;
    for (int w = 0; w < data_words_; ++w) {
      data_masks_[base + static_cast<size_t>(w)] = 0;
    }
  }
  uint64_t& word = data_masks_[base + static_cast<size_t>(state >> 6)];
  const uint64_t bit = uint64_t{1} << (state & 63);
  if (word & bit) return false;
  word |= bit;
  return true;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

void RadixSortNodeIds(std::vector<NodeId>* ids, int64_t id_bound,
                      std::vector<NodeId>* buffer) {
  constexpr int kMaxDigitBits = 11;
  const size_t n = ids->size();
  if (n < 64) {
    std::sort(ids->begin(), ids->end());
    return;
  }
  const uint64_t largest =
      static_cast<uint64_t>(std::max<int64_t>(id_bound - 1, 1));
  const int bits = static_cast<int>(std::bit_width(largest));
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const uint32_t mask = (uint32_t{1} << digit_bits) - 1;
  GrowTo(buffer, n);
  std::array<uint32_t, (1 << kMaxDigitBits) + 1> count;
  NodeId* from = ids->data();
  NodeId* to = buffer->data();
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit_bits;
    auto digit = [&](NodeId id) {
      return (static_cast<uint32_t>(id) >> shift) & mask;
    };
    std::fill_n(count.begin(), mask + 2, 0u);
    for (size_t i = 0; i < n; ++i) ++count[digit(from[i]) + 1];
    for (uint32_t d = 0; d <= mask; ++d) count[d + 1] += count[d];
    for (size_t i = 0; i < n; ++i) to[count[digit(from[i])]++] = from[i];
    std::swap(from, to);
  }
  if (from != ids->data()) std::copy(from, from + n, ids->data());
}

bool FrozenView::ValidateFrozenCandidate(FrozenScratch* s,
                                         const CompiledQuery& query,
                                         NodeId node,
                                         int64_t* visited_pairs) const {
  const CompiledQuery::Tables rev = query.reverse();
  s->BeginDataTraversal(num_data_nodes(), rev.num_states());
  {
    const int32_t cls = query.ClassOf(data_label_[static_cast<size_t>(node)]);
    for (const int32_t* q = rev.starts_begin(cls); q != rev.starts_end(cls);
         ++q) {
      if (s->InsertDataVisit(node, *q)) s->cur_.push_back({node, *q});
    }
  }
  // Level-synchronous reverse BFS over parent edges. Pop order equals the
  // reference FIFO order (level processing is FIFO), so the early exit on
  // the first accepting pop counts exactly the same visits.
  while (!s->cur_.empty()) {
    for (const FrozenScratch::Frontier& f : s->cur_) {
      ++*visited_pairs;
      if (rev.accepts(f.state)) return true;
      const auto [pb, pe] = ParentRow(f.node);
      for (const int32_t* e = pb; e != pe; ++e) {
        const NodeId p = *e;
        const int32_t cls = query.ClassOf(data_label_[static_cast<size_t>(p)]);
        const int32_t* me = rev.moves_end(f.state, cls);
        for (const int32_t* q = rev.moves_begin(f.state, cls); q != me; ++q) {
          if (s->InsertDataVisit(p, *q)) s->next_.push_back({p, *q});
        }
      }
    }
    std::swap(s->cur_, s->next_);
    s->next_.clear();
  }
  return false;
}

std::vector<NodeId> FrozenView::Evaluate(const PathExpression& query,
                                         EvalStats* stats, bool validate,
                                         FrozenScratch* scratch) const {
  FrozenScratch* s = scratch != nullptr ? scratch : &ThreadScratch();
  const CompiledQuery& compiled = query.compiled();
  EvalStats local;

  // --- plan + run the index-side traversal -------------------------------
  const EvalPlan plan = PlanQuery(query, validate);
  const auto backend_start = std::chrono::steady_clock::now();

  std::vector<NodeId> result;
  s->candidates_.clear();
  if (plan.empty) {
    // Prefilter short-circuit: a required label has no index population (or
    // no label can seed/end a match), so the result is {} with no
    // traversal at all.
    s->matched_.clear();
  } else {
    const bool use_prefilter = plan.anchor_label != kInvalidLabel;
    if (use_prefilter) {
      ComputePrefilterSeeds(s, plan.anchor_label, query.max_word_length());
    }
    RunNfaIndexBfs(s, compiled, use_prefilter, &local);
  }

  // --- Theorem 1 split: certain extents vs. candidates to validate -------
  for (IndexNodeId inode : s->matched_) {
    const size_t i = static_cast<size_t>(inode);
    const auto [eb, ee] = ExtentRow(inode);
    if (s->accept_depth_[i] <= index_k_[i]) {
      result.insert(result.end(), eb, ee);
      continue;
    }
    ++local.uncertain_index_nodes;
    if (!validate) {
      // Raw safe answer: keep the whole extent (may over-approximate).
      result.insert(result.end(), eb, ee);
      continue;
    }
    s->candidates_.insert(s->candidates_.end(), eb, ee);
  }

  // --- validation -------------------------------------------------------
  local.validated_candidates += static_cast<int64_t>(s->candidates_.size());
  for (NodeId member : s->candidates_) {
    if (ValidateFrozenCandidate(s, compiled, member,
                                &local.data_nodes_visited)) {
      result.push_back(member);
    }
  }

  RadixSortNodeIds(&result, num_data_nodes(), &s->sort_buffer_);
  // Extents partition the data nodes; duplicates would mean a broken freeze.
  DKI_DCHECK(std::adjacent_find(result.begin(), result.end()) ==
             result.end());
  local.result_size = static_cast<int64_t>(result.size());
  const int64_t backend_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - backend_start)
          .count();
  BackendLatency(plan.backend).Record(backend_ns);
  static EvalCounters& counters = *new EvalCounters("eval.frozen.index");
  counters.Record(local);
  if (stats != nullptr) stats->Accumulate(local);
  return result;
}

}  // namespace dki

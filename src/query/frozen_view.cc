#include "query/frozen_view.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace dki {
namespace {

// Mirrors the EvalCounters of query/evaluator.cc under the frozen prefixes.
struct FrozenCounters {
  explicit FrozenCounters(const std::string& prefix)
      : calls(MetricsRegistry::Global().GetCounter(prefix + ".calls")),
        index_nodes_visited(MetricsRegistry::Global().GetCounter(
            prefix + ".index_nodes_visited")),
        data_nodes_visited(MetricsRegistry::Global().GetCounter(
            prefix + ".data_nodes_visited")),
        validated_candidates(MetricsRegistry::Global().GetCounter(
            prefix + ".validated_candidates")),
        uncertain_index_nodes(MetricsRegistry::Global().GetCounter(
            prefix + ".uncertain_index_nodes")),
        results(MetricsRegistry::Global().GetCounter(prefix + ".results")) {}

  void Record(const EvalStats& s) {
    calls.Increment();
    index_nodes_visited.Increment(s.index_nodes_visited);
    data_nodes_visited.Increment(s.data_nodes_visited);
    validated_candidates.Increment(s.validated_candidates);
    uncertain_index_nodes.Increment(s.uncertain_index_nodes);
    results.Increment(s.result_size);
  }

  Counter& calls;
  Counter& index_nodes_visited;
  Counter& data_nodes_visited;
  Counter& validated_candidates;
  Counter& uncertain_index_nodes;
  Counter& results;
};

int MaskWords(int num_states) { return (num_states + 63) / 64; }

// The scratch of evaluations given none: one per thread, for the thread's
// life, so a call pays no O(|V| + |M|) set-up or repeat table compilation.
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

// FNV-1a over an automaton's full structure (states, transitions in order,
// accepts, starts). Used by the scratch's compiled-query cache to detect the
// rare case of one query text compiled against two different label tables.
uint64_t HashAutomaton(uint64_t h, const Automaton& a) {
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(a.num_states()));
  for (int q = 0; q < a.num_states(); ++q) {
    mix(static_cast<uint64_t>(a.is_accept(q)) | 2u);
    for (const Automaton::Transition& t : a.transitions(q)) {
      mix((static_cast<uint64_t>(static_cast<uint32_t>(t.symbol)) << 32) |
          static_cast<uint32_t>(t.to));
    }
  }
  for (int q : a.start_states()) mix(static_cast<uint64_t>(q) | (1ull << 40));
  return h;
}

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

// Per-plan serving metrics: a call counter and an evaluation-latency
// histogram under serve.eval.backend.<name>.*, resolved once per name.
struct BackendMetrics {
  explicit BackendMetrics(const std::string& name)
      : calls(MetricsRegistry::Global().GetCounter(
            "serve.eval.backend." + name + ".calls")),
        latency_ns(MetricsRegistry::Global().GetHistogram(
            "serve.eval.backend." + name + ".latency_ns")) {}

  Counter& calls;
  Histogram& latency_ns;
};

BackendMetrics& MetricsForBackend(EvalBackend backend) {
  static std::array<BackendMetrics*, kNumEvalBackends>& table = *[] {
    auto* t = new std::array<BackendMetrics*, kNumEvalBackends>();
    for (int b = 0; b < kNumEvalBackends; ++b) {
      (*t)[static_cast<size_t>(b)] =
          new BackendMetrics(EvalBackendName(static_cast<EvalBackend>(b)));
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

  // Data graph: labels + both adjacency directions as CSR.
  data_label_.resize(static_cast<size_t>(n));
  data_child_off_.resize(static_cast<size_t>(n) + 1);
  data_parent_off_.resize(static_cast<size_t>(n) + 1);
  data_child_.reserve(static_cast<size_t>(g.NumEdges()));
  data_parent_.reserve(static_cast<size_t>(g.NumEdges()));
  data_child_off_[0] = 0;
  data_parent_off_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    data_label_[static_cast<size_t>(v)] = g.label(v);
    const auto& c = g.children(v);
    data_child_.insert(data_child_.end(), c.begin(), c.end());
    data_child_off_[static_cast<size_t>(v) + 1] =
        CheckedInt32(data_child_.size());
    const auto& p = g.parents(v);
    data_parent_.insert(data_parent_.end(), p.begin(), p.end());
    data_parent_off_[static_cast<size_t>(v) + 1] =
        CheckedInt32(data_parent_.size());
  }

  // Label inverted indexes, flattened from the graphs' bucket form.
  data_bylabel_off_.resize(static_cast<size_t>(num_labels_) + 1);
  data_bylabel_.reserve(static_cast<size_t>(n));
  data_bylabel_off_[0] = 0;
  for (LabelId l = 0; l < num_labels_; ++l) {
    const auto& bucket = g.NodesWithLabel(l);
    data_bylabel_.insert(data_bylabel_.end(), bucket.begin(), bucket.end());
    data_bylabel_off_[static_cast<size_t>(l) + 1] =
        CheckedInt32(data_bylabel_.size());
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
  return VectorBytes(data_label_) + VectorBytes(data_child_off_) +
         VectorBytes(data_child_) + VectorBytes(data_parent_off_) +
         VectorBytes(data_parent_) + VectorBytes(data_bylabel_off_) +
         VectorBytes(data_bylabel_) + VectorBytes(index_label_) +
         VectorBytes(index_k_) + VectorBytes(index_child_off_) +
         VectorBytes(index_child_) + VectorBytes(index_parent_off_) +
         VectorBytes(index_parent_) + VectorBytes(extent_off_) +
         VectorBytes(extent_) + VectorBytes(index_bylabel_off_) +
         VectorBytes(index_bylabel_);
}

// ---------------------------------------------------------------------------
// FrozenScratch
// ---------------------------------------------------------------------------

void FrozenScratch::DenseAutomaton::Compile(const Automaton& a,
                                            int32_t labels) {
  num_states = a.num_states();
  num_labels = labels;
  const size_t s = static_cast<size_t>(num_states);
  const size_t l = static_cast<size_t>(num_labels);

  accept.assign(s, 0);
  for (int q = 0; q < num_states; ++q) {
    if (a.is_accept(q)) accept[static_cast<size_t>(q)] = 1;
  }

  // Dense move table. Entry (q, l) lists the successors Automaton::Move
  // would append, deduplicated keeping the FIRST appearance — Move appends
  // duplicates and the caller's visited set keeps the first, so preserving
  // first-appearance order makes frozen traversal pop order identical to the
  // reference (which validation early-exit counts depend on). Labels without
  // an explicit edge out of `q` share the state's wildcard sequence.
  move_off.clear();
  move_off.reserve(s * l + 1);
  move_to.clear();
  seen_state_.assign(s, 0);
  if (label_mark_.size() < l) label_mark_.assign(l, 0);
  move_off.push_back(0);
  for (int q = 0; q < num_states; ++q) {
    const auto& ts = a.transitions(q);
    wild_seq_.clear();
    for (const Automaton::Transition& t : ts) {
      if (t.symbol == kAnySymbol && !seen_state_[static_cast<size_t>(t.to)]) {
        seen_state_[static_cast<size_t>(t.to)] = 1;
        wild_seq_.push_back(t.to);
      }
    }
    for (int32_t to : wild_seq_) seen_state_[static_cast<size_t>(to)] = 0;
    touched_labels_.clear();
    for (const Automaton::Transition& t : ts) {
      if (t.symbol >= 0 && t.symbol < num_labels &&
          !label_mark_[static_cast<size_t>(t.symbol)]) {
        label_mark_[static_cast<size_t>(t.symbol)] = 1;
        touched_labels_.push_back(t.symbol);
      }
    }
    for (LabelId lab = 0; lab < num_labels; ++lab) {
      if (label_mark_[static_cast<size_t>(lab)]) {
        // Explicit edge(s) on this label: merge wildcard + explicit targets
        // in transition-scan order, first appearance wins.
        size_t entry_begin = move_to.size();
        for (const Automaton::Transition& t : ts) {
          if ((t.symbol == kAnySymbol || t.symbol == lab) &&
              !seen_state_[static_cast<size_t>(t.to)]) {
            seen_state_[static_cast<size_t>(t.to)] = 1;
            move_to.push_back(t.to);
          }
        }
        for (size_t i = entry_begin; i < move_to.size(); ++i) {
          seen_state_[static_cast<size_t>(move_to[i])] = 0;
        }
      } else {
        move_to.insert(move_to.end(), wild_seq_.begin(), wild_seq_.end());
      }
      move_off.push_back(static_cast<int32_t>(move_to.size()));
    }
    for (LabelId lab : touched_labels_) {
      label_mark_[static_cast<size_t>(lab)] = 0;
    }
  }

  // Start table: StartMovesFor is sorted-unique per label, exactly what the
  // reference evaluators consume, so copying it keeps seeding identical.
  DKI_DCHECK(a.start_moves_ready());
  start_off.clear();
  start_off.reserve(l + 1);
  start_to.clear();
  seed_labels.clear();
  start_off.push_back(0);
  for (LabelId lab = 0; lab < num_labels; ++lab) {
    const std::vector<int>& moves = a.StartMovesFor(lab);
    start_to.insert(start_to.end(), moves.begin(), moves.end());
    start_off.push_back(static_cast<int32_t>(start_to.size()));
    if (!moves.empty()) seed_labels.push_back(lab);
  }
}

void FrozenScratch::PrepareForQuery(const FrozenView& view,
                                    const PathExpression& query) {
  uint64_t fp = 1469598103934665603ull;  // FNV offset basis
  fp = HashAutomaton(fp, query.forward());
  fp = HashAutomaton(fp, query.reverse());
  fp ^= static_cast<uint64_t>(view.num_labels()) * 1099511628211ull;
  if (fp == 0) fp = 1;  // 0 is the never-compiled sentinel

  auto it = compiled_.find(query.text());
  if (it == compiled_.end()) {
    if (compiled_.size() >= kMaxCompiledQueries) compiled_.clear();
    it = compiled_.emplace(query.text(), std::make_unique<CompiledQuery>())
             .first;
  }
  CompiledQuery& entry = *it->second;
  if (entry.fingerprint != fp) {
    entry.fwd.Compile(query.forward(), view.num_labels());
    entry.rev.Compile(query.reverse(), view.num_labels());
    entry.fingerprint = fp;
  }
  fwd_ = &entry.fwd;
  rev_ = &entry.rev;
}

void FrozenScratch::BeginIndexTraversal(int64_t num_index_nodes) {
  const size_t m = static_cast<size_t>(num_index_nodes);
  // Mask words are zeroed on a node's first visit per generation, so a new
  // mask width needs room, never a wipe.
  index_words_ = MaskWords(fwd_->num_states);
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

bool FrozenView::ValidateFrozenCandidate(FrozenScratch* s, NodeId node,
                                         int64_t* visited_pairs) const {
  const FrozenScratch::DenseAutomaton& rev = *s->rev_;
  s->BeginDataTraversal(num_data_nodes(), rev.num_states);
  {
    const LabelId lab = data_label_[static_cast<size_t>(node)];
    const int32_t* qb =
        rev.start_to.data() + rev.start_off[static_cast<size_t>(lab)];
    const int32_t* qe =
        rev.start_to.data() + rev.start_off[static_cast<size_t>(lab) + 1];
    for (const int32_t* q = qb; q != qe; ++q) {
      if (s->InsertDataVisit(node, *q)) s->cur_.push_back({node, *q});
    }
  }
  // Level-synchronous reverse BFS over parent edges. Pop order equals the
  // reference FIFO order (level processing is FIFO), so the early exit on
  // the first accepting pop counts exactly the same visits.
  while (!s->cur_.empty()) {
    for (const FrozenScratch::Frontier& f : s->cur_) {
      ++*visited_pairs;
      if (rev.accept[static_cast<size_t>(f.state)]) return true;
      const auto [pb, pe] = ParentRow(f.node);
      for (const int32_t* e = pb; e != pe; ++e) {
        const NodeId p = *e;
        const LabelId plab = data_label_[static_cast<size_t>(p)];
        const int32_t* mb = rev.moves_begin(f.state, plab);
        const int32_t* me = rev.moves_end(f.state, plab);
        for (const int32_t* q = mb; q != me; ++q) {
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
  s->PrepareForQuery(*this, query);
  EvalStats local;

  // --- plan + run the index-side traversal -------------------------------
  const EvalPlan plan = PlanQuery(query, validate);
  BackendMetrics& backend_metrics = MetricsForBackend(plan.backend);
  backend_metrics.calls.Increment();
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
    RunNfaIndexBfs(s, use_prefilter, &local);
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
    if (ValidateFrozenCandidate(s, member, &local.data_nodes_visited)) {
      result.push_back(member);
    }
  }

  std::sort(result.begin(), result.end());
  // Extents partition the data nodes; duplicates would mean a broken freeze.
  DKI_DCHECK(std::adjacent_find(result.begin(), result.end()) ==
             result.end());
  local.result_size = static_cast<int64_t>(result.size());
  const int64_t backend_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - backend_start)
          .count();
  backend_metrics.latency_ns.Record(backend_ns);
  static FrozenCounters& counters = *new FrozenCounters("eval.frozen.index");
  counters.Record(local);
  if (stats != nullptr) stats->Accumulate(local);
  return result;
}

std::vector<NodeId> FrozenView::EvaluateOnData(const PathExpression& query,
                                               EvalStats* stats,
                                               FrozenScratch* scratch) const {
  FrozenScratch* s = scratch != nullptr ? scratch : &ThreadScratch();
  s->PrepareForQuery(*this, query);
  EvalStats local;

  const FrozenScratch::DenseAutomaton& fwd = *s->fwd_;
  s->BeginDataTraversal(num_data_nodes(), fwd.num_states);
  GrowTo(&s->result_gen_, static_cast<size_t>(num_data_nodes()));
  s->matched_data_.clear();
  for (LabelId lab : fwd.seed_labels) {
    const int32_t nb = data_bylabel_off_[static_cast<size_t>(lab)];
    const int32_t ne = data_bylabel_off_[static_cast<size_t>(lab) + 1];
    const int32_t* qb =
        fwd.start_to.data() + fwd.start_off[static_cast<size_t>(lab)];
    const int32_t* qe =
        fwd.start_to.data() + fwd.start_off[static_cast<size_t>(lab) + 1];
    for (int32_t e = nb; e != ne; ++e) {
      const NodeId node = data_bylabel_[static_cast<size_t>(e)];
      for (const int32_t* q = qb; q != qe; ++q) {
        if (s->InsertDataVisit(node, *q)) s->cur_.push_back({node, *q});
      }
    }
  }
  while (!s->cur_.empty()) {
    for (const FrozenScratch::Frontier& f : s->cur_) {
      ++local.data_nodes_visited;
      if (fwd.accept[static_cast<size_t>(f.state)]) {
        const size_t i = static_cast<size_t>(f.node);
        if (s->result_gen_[i] != s->data_gen_) {
          s->result_gen_[i] = s->data_gen_;
          s->matched_data_.push_back(f.node);
        }
      }
      const auto [cb, ce] = ChildRow(f.node);
      for (const int32_t* e = cb; e != ce; ++e) {
        const NodeId c = *e;
        const LabelId clab = data_label_[static_cast<size_t>(c)];
        const int32_t* mb = fwd.moves_begin(f.state, clab);
        const int32_t* me = fwd.moves_end(f.state, clab);
        for (const int32_t* q = mb; q != me; ++q) {
          if (s->InsertDataVisit(c, *q)) s->next_.push_back({c, *q});
        }
      }
    }
    std::swap(s->cur_, s->next_);
    s->next_.clear();
  }

  std::vector<NodeId> result(s->matched_data_.begin(),
                             s->matched_data_.end());
  std::sort(result.begin(), result.end());  // reference emits in id order
  local.result_size = static_cast<int64_t>(result.size());
  static FrozenCounters& counters = *new FrozenCounters("eval.frozen.data");
  counters.Record(local);
  if (stats != nullptr) stats->Accumulate(local);
  return result;
}

int FrozenView::BatchLanes(int64_t total, int pool_threads) {
  // Floor division keeps the lane-count promise honest: with ceil division
  // a batch just past a lane multiple (say 9 queries, kMinQueriesPerLane 8)
  // opened an extra lane whose queries all fell below the minimum. Floor
  // caps lanes so EVERY lane gets >= kMinQueriesPerLane, and ChunkBounds
  // spreads the remainder so lane loads differ by at most one query.
  if (pool_threads <= 1 || total <= 1) return 1;
  const int64_t max_useful_lanes =
      std::max<int64_t>(1, total / kMinQueriesPerLane);
  return static_cast<int>(std::min<int64_t>(pool_threads, max_useful_lanes));
}

std::vector<std::vector<NodeId>> FrozenView::EvaluateBatch(
    const std::vector<const PathExpression*>& queries, ThreadPool* pool,
    std::vector<EvalStats>* stats, bool validate) const {
  const int64_t total = static_cast<int64_t>(queries.size());
  std::vector<std::vector<NodeId>> results(queries.size());
  if (stats != nullptr) stats->assign(queries.size(), EvalStats());
  const int num_lanes =
      BatchLanes(total, pool == nullptr ? 1 : pool->num_threads());
  auto run_range = [&](int /*chunk*/, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      EvalStats st;
      results[static_cast<size_t>(i)] =
          Evaluate(*queries[static_cast<size_t>(i)], &st, validate);
      if (stats != nullptr) (*stats)[static_cast<size_t>(i)] = st;
    }
  };
  if (num_lanes == 1) {
    run_range(0, 0, total);
  } else {
    // One chunk per lane, each on its thread's own scratch. Chunks are
    // deterministic in boundaries and each query's evaluation is
    // self-contained, so the output is thread-count-invariant.
    pool->ParallelFor(total, num_lanes, run_range);
  }
  return results;
}

std::vector<std::vector<NodeId>> FrozenView::EvaluateBatch(
    const std::vector<PathExpression>& queries, ThreadPool* pool,
    std::vector<EvalStats>* stats, bool validate) const {
  std::vector<const PathExpression*> ptrs;
  ptrs.reserve(queries.size());
  for (const PathExpression& q : queries) ptrs.push_back(&q);
  return EvaluateBatch(ptrs, pool, stats, validate);
}

}  // namespace dki

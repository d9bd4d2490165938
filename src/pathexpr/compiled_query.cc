#include "pathexpr/compiled_query.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace dki {
namespace {

// What the constructor builds in, kept per thread and grow-only, so a parse
// allocates only the finished tables (copied out at their exact size).
struct BuildScratch {
  std::vector<LabelId> named;
  std::vector<int32_t> rev_off;
  std::vector<int32_t> rev_fill;
  std::vector<Automaton::Transition> rev_edges;
  std::vector<int> accept_states;
  std::vector<uint8_t> seen;
  std::vector<int> named_by;
  std::vector<int32_t> out;
};

BuildScratch& ThreadBuildScratch() {
  thread_local BuildScratch scratch;
  return scratch;
}

}  // namespace

CompiledQuery::CompiledQuery(const Automaton& forward)
    : num_states_(forward.num_states()) {
  using Transition = Automaton::Transition;
  const size_t s = static_cast<size_t>(num_states_);
  BuildScratch& b = ThreadBuildScratch();

  // Named labels, ascending; they become classes 0..m-1.
  b.named.clear();
  for (int q = 0; q < num_states_; ++q) {
    for (const Transition& t : forward.transitions(q)) {
      if (t.symbol >= 0) b.named.push_back(t.symbol);
    }
  }
  std::sort(b.named.begin(), b.named.end());
  b.named.erase(std::unique(b.named.begin(), b.named.end()), b.named.end());
  const int32_t m = static_cast<int32_t>(b.named.size());
  num_classes_ = m + 1;
  map_size_ = m == 0 ? 0 : b.named.back() + 1;
  b.out.assign(b.named.begin(), b.named.end());
  b.out.resize(static_cast<size_t>(m + map_size_), m);
  for (int32_t cls = 0; cls < m; ++cls) {
    b.out[static_cast<size_t>(m + b.named[static_cast<size_t>(cls)])] = cls;
  }

  // The reversed transitions in Automaton::Reverse's order: state q's
  // edges come from every p with an edge p -> q, p ascending, each p's in
  // its own transition order.
  b.rev_off.assign(s + 1, 0);
  for (int q = 0; q < num_states_; ++q) {
    for (const Transition& t : forward.transitions(q)) {
      ++b.rev_off[static_cast<size_t>(t.to) + 1];
    }
  }
  for (size_t q = 0; q < s; ++q) b.rev_off[q + 1] += b.rev_off[q];
  b.rev_edges.resize(static_cast<size_t>(b.rev_off[s]));
  b.rev_fill.assign(b.rev_off.begin(), b.rev_off.end() - 1);
  b.accept_states.clear();
  for (int q = 0; q < num_states_; ++q) {
    for (const Transition& t : forward.transitions(q)) {
      b.rev_edges[static_cast<size_t>(
          b.rev_fill[static_cast<size_t>(t.to)]++)] = {t.symbol, q};
    }
    if (forward.is_accept(q)) b.accept_states.push_back(q);
  }

  fwd_ = AppendDirection(
      &b.out, b.named,
      [&](int q) {
        const std::vector<Transition>& ts = forward.transitions(q);
        return std::make_pair(ts.data(), ts.data() + ts.size());
      },
      forward.start_states(), [&](int q) { return forward.is_accept(q); });
  rev_ = AppendDirection(
      &b.out, b.named,
      [&](int q) {
        const Transition* base = b.rev_edges.data();
        return std::make_pair(base + b.rev_off[static_cast<size_t>(q)],
                              base + b.rev_off[static_cast<size_t>(q) + 1]);
      },
      b.accept_states, [&](int q) { return forward.is_start(q); });
  // Every offset, state * classes + cls included, is below the size.
  DKI_CHECK_LE(b.out.size(),
               static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  data_.assign(b.out.begin(), b.out.end());
}

template <typename Rows, typename Accepts>
CompiledQuery::Sections CompiledQuery::AppendDirection(
    std::vector<int32_t>* out, const std::vector<LabelId>& named,
    const Rows& rows, const std::vector<int>& starts,
    const Accepts& accepts) const {
  const size_t cells =
      static_cast<size_t>(num_states_) * static_cast<size_t>(num_classes_);
  const int32_t other = num_classes_ - 1;
  // Does an edge labelled `symbol` move on a label of class `cls`?
  auto matches = [&](Symbol symbol, int32_t cls) {
    return symbol == kAnySymbol ||
           (cls != other && symbol == named[static_cast<size_t>(cls)]);
  };

  Sections sec;
  sec.accept = static_cast<int32_t>(out->size());
  for (int q = 0; q < num_states_; ++q) out->push_back(accepts(q) ? 1 : 0);
  DKI_CHECK_LE(out->size() + cells + static_cast<size_t>(num_classes_) + 2,
               static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  sec.move_off = static_cast<int32_t>(out->size());
  sec.start_off = sec.move_off + static_cast<int32_t>(cells) + 1;
  sec.move_to = sec.start_off + num_classes_ + 1;
  out->resize(static_cast<size_t>(sec.move_to));

  // Move rows, first appearance wins. A state without a wildcard edge has
  // empty rows but for the classes its edges name: named_by[cls] == q.
  BuildScratch& b = ThreadBuildScratch();
  std::vector<uint8_t>& seen = b.seen;
  seen.assign(static_cast<size_t>(num_states_), 0);
  b.named_by.assign(static_cast<size_t>(num_classes_), -1);
  size_t cell = static_cast<size_t>(sec.move_off);
  (*out)[cell] = 0;
  for (int q = 0; q < num_states_; ++q) {
    const auto [tb, te] = rows(q);
    bool any = false;
    for (auto* t = tb; t != te; ++t) {
      any |= t->symbol == kAnySymbol;
      if (t->symbol >= 0) {
        b.named_by[static_cast<size_t>(
            std::lower_bound(named.begin(), named.end(), t->symbol) -
            named.begin())] = q;
      }
    }
    for (int32_t cls = 0; cls < num_classes_; ++cls) {
      const size_t row_begin = out->size();
      if (any || b.named_by[static_cast<size_t>(cls)] == q) {
        for (auto* t = tb; t != te; ++t) {
          if (matches(t->symbol, cls) && !seen[static_cast<size_t>(t->to)]) {
            seen[static_cast<size_t>(t->to)] = 1;
            out->push_back(t->to);
          }
        }
        for (size_t i = row_begin; i < out->size(); ++i) {
          seen[static_cast<size_t>((*out)[i])] = 0;
        }
      }
      (*out)[++cell] = static_cast<int32_t>(out->size()) - sec.move_to;
    }
  }

  // Start rows: StartMovesFor, sorted-unique.
  sec.start_to = static_cast<int32_t>(out->size());
  (*out)[static_cast<size_t>(sec.start_off)] = 0;
  for (int32_t cls = 0; cls < num_classes_; ++cls) {
    const size_t row_at = out->size();
    for (int q : starts) {
      const auto [tb, te] = rows(q);
      for (auto* t = tb; t != te; ++t) {
        if (matches(t->symbol, cls)) out->push_back(t->to);
      }
    }
    const auto begin = out->begin() + static_cast<ptrdiff_t>(row_at);
    std::sort(begin, out->end());
    out->erase(std::unique(begin, out->end()), out->end());
    (*out)[static_cast<size_t>(sec.start_off + cls + 1)] =
        static_cast<int32_t>(out->size()) - sec.start_to;
  }
  return sec;
}

CompiledQuery::Tables CompiledQuery::TablesAt(const Sections& s) const {
  const int32_t* base = data_.data();
  Tables t;
  t.num_states_ = num_states_;
  t.num_classes_ = num_classes_;
  t.accept_ = base + s.accept;
  t.move_off_ = base + s.move_off;
  t.move_to_ = base + s.move_to;
  t.start_off_ = base + s.start_off;
  t.start_to_ = base + s.start_to;
  return t;
}

}  // namespace dki

#include "pathexpr/nfa.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace dki {
namespace {

// What MaxWordLength works in, kept per thread and grow-only.
struct LengthScratch {
  std::vector<int> rev_off, rev_from, fill, stack, indeg, order, dist;
  std::vector<uint8_t> mark;
};

LengthScratch& ThreadLengthScratch() {
  thread_local LengthScratch scratch;
  return scratch;
}

}  // namespace

Automaton::Automaton(int num_states)
    : transitions_(static_cast<size_t>(num_states)),
      start_(static_cast<size_t>(num_states), false),
      accept_(static_cast<size_t>(num_states), false) {}

void Automaton::AddTransition(int from, Symbol symbol, int to) {
  DKI_DCHECK(from >= 0 && from < num_states());
  DKI_DCHECK(to >= 0 && to < num_states());
  transitions_[static_cast<size_t>(from)].push_back({symbol, to});
  start_moves_ready_ = false;
}

void Automaton::SetStart(int q, bool v) {
  start_[static_cast<size_t>(q)] = v;
  start_list_.clear();
  for (int s = 0; s < num_states(); ++s) {
    if (start_[static_cast<size_t>(s)]) start_list_.push_back(s);
  }
  start_moves_ready_ = false;
}

void Automaton::Move(int q, LabelId label, std::vector<int>* out) const {
  for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
    if (t.symbol == kAnySymbol || t.symbol == label) out->push_back(t.to);
  }
}

std::vector<int> Automaton::StartMove(LabelId label) const {
  std::vector<int> out;
  for (int q : start_list_) Move(q, label, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Automaton::PrecomputeStartMoves() {
  start_moves_by_label_.clear();
  wildcard_start_moves_.clear();
  // Labels that can never be asked about (kUnknownLabel) are skipped: no
  // graph node carries them. Every label without a dedicated entry shares
  // wildcard_start_moves_, which equals StartMove(l) for exactly those
  // labels.
  for (int q : start_list_) {
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      if (t.symbol == kAnySymbol) {
        wildcard_start_moves_.push_back(t.to);
      } else if (t.symbol >= 0) {
        start_moves_by_label_.emplace(t.symbol, std::vector<int>());
      }
    }
  }
  std::sort(wildcard_start_moves_.begin(), wildcard_start_moves_.end());
  wildcard_start_moves_.erase(
      std::unique(wildcard_start_moves_.begin(), wildcard_start_moves_.end()),
      wildcard_start_moves_.end());
  for (auto& [label, moves] : start_moves_by_label_) {
    moves = StartMove(label);
  }
  start_moves_ready_ = true;
}

const std::vector<int>& Automaton::StartMovesFor(LabelId label) const {
  DKI_DCHECK(start_moves_ready_);
  auto it = start_moves_by_label_.find(label);
  return it == start_moves_by_label_.end() ? wildcard_start_moves_
                                           : it->second;
}

bool Automaton::CanStartWith(LabelId label) const {
  for (int q : start_list_) {
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      if (t.symbol == kAnySymbol || t.symbol == label) return true;
    }
  }
  return false;
}

bool Automaton::AnyFromStart() const {
  for (int q : start_list_) {
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      if (t.symbol == kAnySymbol) return true;
    }
  }
  return false;
}

Automaton Automaton::Reverse() const {
  Automaton rev(num_states());
  for (int q = 0; q < num_states(); ++q) {
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      rev.AddTransition(t.to, t.symbol, q);
    }
    rev.SetAccept(q, is_start(q));
  }
  for (int q = 0; q < num_states(); ++q) {
    if (is_accept(q)) rev.SetStart(q, true);
  }
  rev.PrecomputeStartMoves();
  return rev;
}

int Automaton::MaxWordLength() const {
  const size_t n = static_cast<size_t>(num_states());
  LengthScratch& w = ThreadLengthScratch();
  // Reversed edges as CSR, for co-reachability and in-degrees.
  std::vector<int>& rev_off = w.rev_off;
  std::vector<int>& rev_from = w.rev_from;
  rev_off.assign(n + 1, 0);
  for (size_t q = 0; q < n; ++q) {
    for (const Transition& t : transitions_[q]) {
      ++rev_off[static_cast<size_t>(t.to) + 1];
    }
  }
  for (size_t q = 0; q < n; ++q) rev_off[q + 1] += rev_off[q];
  rev_from.resize(static_cast<size_t>(rev_off[n]));
  w.fill.assign(rev_off.begin(), rev_off.end() - 1);
  for (size_t q = 0; q < n; ++q) {
    for (const Transition& t : transitions_[q]) {
      rev_from[static_cast<size_t>(w.fill[static_cast<size_t>(t.to)]++)] =
          static_cast<int>(q);
    }
  }

  // A state is useful when reachable from the start set (kReach) and
  // co-reachable to an accept state (kCoreach).
  constexpr uint8_t kReach = 1;
  constexpr uint8_t kCoreach = 2;
  std::vector<uint8_t>& mark = w.mark;
  std::vector<int>& stack = w.stack;
  mark.assign(n, 0);
  stack.clear();
  for (int q : start_list_) {
    mark[static_cast<size_t>(q)] |= kReach;
    stack.push_back(q);
  }
  while (!stack.empty()) {
    const int q = stack.back();
    stack.pop_back();
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      uint8_t& m = mark[static_cast<size_t>(t.to)];
      if (!(m & kReach)) {
        m |= kReach;
        stack.push_back(t.to);
      }
    }
  }
  for (size_t q = 0; q < n; ++q) {
    if (accept_[q]) {
      mark[q] |= kCoreach;
      stack.push_back(static_cast<int>(q));
    }
  }
  while (!stack.empty()) {
    const size_t q = static_cast<size_t>(stack.back());
    stack.pop_back();
    for (int i = rev_off[q]; i < rev_off[q + 1]; ++i) {
      const int p = rev_from[static_cast<size_t>(i)];
      uint8_t& m = mark[static_cast<size_t>(p)];
      if (!(m & kCoreach)) {
        m |= kCoreach;
        stack.push_back(p);
      }
    }
  }
  auto useful = [&](size_t q) { return mark[q] == (kReach | kCoreach); };

  // Kahn's topological order over the useful states. A useful state left
  // out of it lies on or behind a cycle among useful states, and such a
  // cycle makes the language infinite.
  std::vector<int>& indeg = w.indeg;
  std::vector<int>& order = w.order;
  indeg.assign(n, 0);
  order.clear();
  size_t num_useful = 0;
  for (size_t q = 0; q < n; ++q) {
    if (!useful(q)) continue;
    ++num_useful;
    for (int i = rev_off[q]; i < rev_off[q + 1]; ++i) {
      indeg[q] += useful(static_cast<size_t>(rev_from[static_cast<size_t>(i)]));
    }
    if (indeg[q] == 0) order.push_back(static_cast<int>(q));
  }
  if (num_useful == 0) return -2;  // empty language
  for (size_t head = 0; head < order.size(); ++head) {
    for (const Transition& t :
         transitions_[static_cast<size_t>(order[head])]) {
      const size_t to = static_cast<size_t>(t.to);
      if (useful(to) && --indeg[to] == 0) order.push_back(t.to);
    }
  }
  if (order.size() < num_useful) return -1;  // cycle

  // Longest path from a start state to an accept state, in that order.
  constexpr int kNegInf = -1000000;
  std::vector<int>& dist = w.dist;
  dist.assign(n, kNegInf);
  for (int q : start_list_) {
    if (useful(static_cast<size_t>(q))) dist[static_cast<size_t>(q)] = 0;
  }
  int best = kNegInf;
  for (int q : order) {
    const int dq = dist[static_cast<size_t>(q)];
    if (dq == kNegInf) continue;
    if (accept_[static_cast<size_t>(q)]) best = std::max(best, dq);
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      int& dt = dist[static_cast<size_t>(t.to)];
      if (useful(static_cast<size_t>(t.to))) dt = std::max(dt, dq + 1);
    }
  }
  DKI_CHECK_GE(best, 0);
  return best;
}

std::string Automaton::DebugString() const {
  std::ostringstream os;
  for (int q = 0; q < num_states(); ++q) {
    os << q;
    if (is_start(q)) os << " [start]";
    if (is_accept(q)) os << " [accept]";
    os << ":";
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      os << " --" << t.symbol << "--> " << t.to;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

// Thompson-style NFA with epsilon transitions; an intermediate form only.
// A state has at most one symbol edge (only a label or `_` fragment's entry
// state has one) and at most two epsilon edges (the construct that closes
// a fragment adds them to its accept state, once), so states are flat.
struct EpsNfa {
  struct State {
    Symbol symbol = kUnknownLabel;
    int symbol_to = -1;  // -1: no symbol edge
    int eps[2] = {-1, -1};
  };
  std::vector<State>& states;

  int AddState() {
    states.emplace_back();
    return static_cast<int>(states.size()) - 1;
  }
  void Eps(int from, int to) {
    State& s = states[static_cast<size_t>(from)];
    DKI_CHECK(s.eps[1] < 0);
    s.eps[s.eps[0] < 0 ? 0 : 1] = to;
  }
  void Sym(int from, Symbol symbol, int to) {
    State& s = states[static_cast<size_t>(from)];
    s.symbol = symbol;
    s.symbol_to = to;
  }
};

struct Fragment {
  int start;
  int accept;
};

Fragment BuildFragment(EpsNfa* nfa, const AstNode& ast,
                       const LabelTable& labels) {
  switch (ast.kind) {
    case AstKind::kLabel: {
      int s = nfa->AddState();
      int a = nfa->AddState();
      LabelId id = labels.Find(ast.label);
      nfa->Sym(s, id == kInvalidLabel ? kUnknownLabel : id, a);
      return {s, a};
    }
    case AstKind::kWildcard: {
      int s = nfa->AddState();
      int a = nfa->AddState();
      nfa->Sym(s, kAnySymbol, a);
      return {s, a};
    }
    case AstKind::kSeq: {
      Fragment l = BuildFragment(nfa, *ast.left, labels);
      Fragment r = BuildFragment(nfa, *ast.right, labels);
      nfa->Eps(l.accept, r.start);
      return {l.start, r.accept};
    }
    case AstKind::kAlt: {
      Fragment l = BuildFragment(nfa, *ast.left, labels);
      Fragment r = BuildFragment(nfa, *ast.right, labels);
      int s = nfa->AddState();
      int a = nfa->AddState();
      nfa->Eps(s, l.start);
      nfa->Eps(s, r.start);
      nfa->Eps(l.accept, a);
      nfa->Eps(r.accept, a);
      return {s, a};
    }
    case AstKind::kStar: {
      Fragment c = BuildFragment(nfa, *ast.left, labels);
      int s = nfa->AddState();
      int a = nfa->AddState();
      nfa->Eps(s, c.start);
      nfa->Eps(s, a);
      nfa->Eps(c.accept, c.start);
      nfa->Eps(c.accept, a);
      return {s, a};
    }
    case AstKind::kPlus: {
      Fragment c = BuildFragment(nfa, *ast.left, labels);
      int s = nfa->AddState();
      int a = nfa->AddState();
      nfa->Eps(s, c.start);
      nfa->Eps(c.accept, c.start);
      nfa->Eps(c.accept, a);
      return {s, a};
    }
    case AstKind::kOpt: {
      Fragment c = BuildFragment(nfa, *ast.left, labels);
      int s = nfa->AddState();
      int a = nfa->AddState();
      nfa->Eps(s, c.start);
      nfa->Eps(s, a);
      nfa->Eps(c.accept, a);
      return {s, a};
    }
  }
  DKI_CHECK(false);  // unreachable
  return {0, 0};
}

// What CompileAst works in, kept per thread and grow-only, so a compile
// allocates only the automaton it returns.
struct CompileScratch {
  std::vector<EpsNfa::State> eps_states;
  std::vector<int> id, stamp, stack;
  std::vector<std::pair<Symbol, int>> edges;
};

CompileScratch& ThreadCompileScratch() {
  thread_local CompileScratch scratch;
  return scratch;
}

}  // namespace

Automaton CompileAst(const AstNode& ast, const LabelTable& labels) {
  CompileScratch& w = ThreadCompileScratch();
  w.eps_states.clear();
  EpsNfa nfa{w.eps_states};
  const Fragment frag = BuildFragment(&nfa, ast, labels);
  const size_t n = nfa.states.size();

  // Folding epsilon closures gives state q the symbol edges of every state
  // in closure(q), and makes it accepting if its closure holds the accept
  // state. Every Thompson state is reachable from the start, so after the
  // fold exactly the start state and the symbol-edge targets (the Glushkov
  // positions) are reachable, and every one of them can reach an accept
  // state. Only those are kept, renumbered in ascending order: the
  // renumbering is monotone, so rows sorted by (symbol, target) stay sorted.
  std::vector<int>& id = w.id;
  id.assign(n, -1);
  id[static_cast<size_t>(frag.start)] = 0;
  for (const EpsNfa::State& s : nfa.states) {
    if (s.symbol_to >= 0) id[static_cast<size_t>(s.symbol_to)] = 0;
  }
  int kept = 0;
  for (int& q : id) {
    if (q == 0) q = kept++;
  }

  Automaton out(kept);
  // stamp[u] == q marks u as already in closure(q).
  std::vector<int>& stamp = w.stamp;
  std::vector<int>& stack = w.stack;
  std::vector<std::pair<Symbol, int>>& edges = w.edges;
  stamp.assign(n, -1);
  for (size_t q = 0; q < n; ++q) {
    if (id[q] < 0) continue;
    edges.clear();
    stamp[q] = static_cast<int>(q);
    stack.assign(1, static_cast<int>(q));
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      if (u == frag.accept) out.SetAccept(id[q], true);
      const EpsNfa::State& su = nfa.states[static_cast<size_t>(u)];
      if (su.symbol_to >= 0) {
        edges.emplace_back(su.symbol, id[static_cast<size_t>(su.symbol_to)]);
      }
      for (int v : su.eps) {
        if (v >= 0 && stamp[static_cast<size_t>(v)] != static_cast<int>(q)) {
          stamp[static_cast<size_t>(v)] = static_cast<int>(q);
          stack.push_back(v);
        }
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (const auto& [symbol, to] : edges) out.AddTransition(id[q], symbol, to);
  }
  out.SetStart(id[static_cast<size_t>(frag.start)], true);
  return out;
}

}  // namespace dki

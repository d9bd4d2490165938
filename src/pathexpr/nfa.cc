#include "pathexpr/nfa.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace dki {

int Automaton::AddState() {
  transitions_.emplace_back();
  start_.push_back(false);
  accept_.push_back(false);
  return num_states() - 1;
}

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
  Automaton rev;
  for (int q = 0; q < num_states(); ++q) rev.AddState();
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
  const int n = num_states();
  // Forward reachability from the start set.
  std::vector<bool> reach(static_cast<size_t>(n), false);
  {
    std::vector<int> stack = start_list_;
    for (int q : stack) reach[static_cast<size_t>(q)] = true;
    while (!stack.empty()) {
      int q = stack.back();
      stack.pop_back();
      for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
        if (!reach[static_cast<size_t>(t.to)]) {
          reach[static_cast<size_t>(t.to)] = true;
          stack.push_back(t.to);
        }
      }
    }
  }
  // Co-reachability to an accept state (on the reversed edges).
  std::vector<std::vector<int>> rev_adj(static_cast<size_t>(n));
  for (int q = 0; q < n; ++q) {
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      rev_adj[static_cast<size_t>(t.to)].push_back(q);
    }
  }
  std::vector<bool> coreach(static_cast<size_t>(n), false);
  {
    std::vector<int> stack;
    for (int q = 0; q < n; ++q) {
      if (is_accept(q)) {
        coreach[static_cast<size_t>(q)] = true;
        stack.push_back(q);
      }
    }
    while (!stack.empty()) {
      int q = stack.back();
      stack.pop_back();
      for (int p : rev_adj[static_cast<size_t>(q)]) {
        if (!coreach[static_cast<size_t>(p)]) {
          coreach[static_cast<size_t>(p)] = true;
          stack.push_back(p);
        }
      }
    }
  }
  auto useful = [&](int q) {
    return reach[static_cast<size_t>(q)] && coreach[static_cast<size_t>(q)];
  };
  bool any_useful = false;
  for (int q = 0; q < n; ++q) any_useful |= useful(q);
  if (!any_useful) return -2;  // empty language

  // Detect a cycle among useful states (iterative DFS with colors).
  std::vector<int> color(static_cast<size_t>(n), 0);  // 0 white 1 gray 2 black
  for (int root = 0; root < n; ++root) {
    if (!useful(root) || color[static_cast<size_t>(root)] != 0) continue;
    std::vector<std::pair<int, size_t>> stack = {{root, 0}};
    color[static_cast<size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [q, idx] = stack.back();
      const auto& ts = transitions_[static_cast<size_t>(q)];
      bool advanced = false;
      while (idx < ts.size()) {
        int to = ts[idx++].to;
        if (!useful(to)) continue;
        if (color[static_cast<size_t>(to)] == 1) return -1;  // cycle
        if (color[static_cast<size_t>(to)] == 0) {
          color[static_cast<size_t>(to)] = 1;
          stack.emplace_back(to, 0);
          advanced = true;
          break;
        }
      }
      if (!advanced && idx >= ts.size()) {
        color[static_cast<size_t>(q)] = 2;
        stack.pop_back();
      }
    }
  }

  // DAG longest path from start states to accept states over useful states.
  // Topological order via repeated relaxation (DAG is tiny for queries).
  std::vector<int> order;
  {
    std::vector<int> indeg(static_cast<size_t>(n), 0);
    for (int q = 0; q < n; ++q) {
      if (!useful(q)) continue;
      for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
        if (useful(t.to)) ++indeg[static_cast<size_t>(t.to)];
      }
    }
    std::deque<int> ready;
    for (int q = 0; q < n; ++q) {
      if (useful(q) && indeg[static_cast<size_t>(q)] == 0) ready.push_back(q);
    }
    while (!ready.empty()) {
      int q = ready.front();
      ready.pop_front();
      order.push_back(q);
      for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
        if (useful(t.to) && --indeg[static_cast<size_t>(t.to)] == 0) {
          ready.push_back(t.to);
        }
      }
    }
  }
  constexpr int kNegInf = -1000000;
  std::vector<int> dist(static_cast<size_t>(n), kNegInf);
  for (int q : start_list_) {
    if (useful(q)) dist[static_cast<size_t>(q)] = 0;
  }
  int best = kNegInf;
  for (int q : order) {
    int dq = dist[static_cast<size_t>(q)];
    if (dq == kNegInf) continue;
    if (is_accept(q)) best = std::max(best, dq);
    for (const Transition& t : transitions_[static_cast<size_t>(q)]) {
      if (!useful(t.to)) continue;
      dist[static_cast<size_t>(t.to)] =
          std::max(dist[static_cast<size_t>(t.to)], dq + 1);
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
struct EpsNfa {
  struct State {
    std::vector<Automaton::Transition> symbol_edges;
    std::vector<int> eps_edges;
  };
  std::vector<State> states;

  int AddState() {
    states.emplace_back();
    return static_cast<int>(states.size()) - 1;
  }
  void Eps(int from, int to) {
    states[static_cast<size_t>(from)].eps_edges.push_back(to);
  }
  void Sym(int from, Symbol s, int to) {
    states[static_cast<size_t>(from)].symbol_edges.push_back({s, to});
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

// Epsilon closure of `q` (including q), memoized by the caller.
std::vector<int> EpsClosure(const EpsNfa& nfa, int q) {
  std::vector<int> closure;
  std::vector<bool> seen(nfa.states.size(), false);
  std::vector<int> stack = {q};
  seen[static_cast<size_t>(q)] = true;
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    closure.push_back(u);
    for (int v : nfa.states[static_cast<size_t>(u)].eps_edges) {
      if (!seen[static_cast<size_t>(v)]) {
        seen[static_cast<size_t>(v)] = true;
        stack.push_back(v);
      }
    }
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

}  // namespace

Automaton CompileAst(const AstNode& ast, const LabelTable& labels) {
  EpsNfa nfa;
  Fragment frag = BuildFragment(&nfa, ast, labels);

  // Fold epsilon closures: state q keeps the symbol edges of every state in
  // closure(q), and is accepting if its closure contains the accept state.
  Automaton out;
  const int n = static_cast<int>(nfa.states.size());
  for (int q = 0; q < n; ++q) out.AddState();
  for (int q = 0; q < n; ++q) {
    std::set<std::pair<Symbol, int>> edges;
    for (int c : EpsClosure(nfa, q)) {
      if (c == frag.accept) out.SetAccept(q, true);
      for (const Automaton::Transition& t :
           nfa.states[static_cast<size_t>(c)].symbol_edges) {
        edges.emplace(t.symbol, t.to);
      }
    }
    for (const auto& [symbol, to] : edges) out.AddTransition(q, symbol, to);
  }
  out.SetStart(frag.start, true);
  return out;
}

}  // namespace dki

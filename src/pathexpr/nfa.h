#ifndef DKINDEX_PATHEXPR_NFA_H_
#define DKINDEX_PATHEXPR_NFA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "graph/label_table.h"
#include "pathexpr/ast.h"

namespace dki {

// Symbol on an automaton transition: a LabelId (>= 0), the wildcard
// kAnySymbol, or kUnknownLabel for query labels absent from the data's label
// table (they can never match a node, but must still parse & compile).
using Symbol = int32_t;

inline constexpr Symbol kAnySymbol = -2;
inline constexpr Symbol kUnknownLabel = -3;

// Epsilon-free nondeterministic finite automaton over label symbols.
// Compiled from a path-expression AST via Thompson construction followed by
// epsilon elimination, trimmed to reachable states. Supports multiple start
// states so that Reverse() is a pure edge flip (start and accept sets swap).
class Automaton {
 public:
  struct Transition {
    Symbol symbol;
    int to;
  };

  int num_states() const { return static_cast<int>(transitions_.size()); }
  bool is_start(int q) const { return start_[static_cast<size_t>(q)]; }
  bool is_accept(int q) const { return accept_[static_cast<size_t>(q)]; }
  const std::vector<Transition>& transitions(int q) const {
    return transitions_[static_cast<size_t>(q)];
  }
  const std::vector<int>& start_states() const { return start_list_; }

  // Appends to `out` every state reachable from `q` by consuming `label`.
  // May contain duplicates; callers dedupe via their visited sets.
  void Move(int q, LabelId label, std::vector<int>* out) const;

  // States reachable from the start set by consuming `label` (deduplicated).
  std::vector<int> StartMove(LabelId label) const;

  // Precomputes StartMove for every label with a dedicated transition out of
  // the start set, plus the shared wildcard-only set every other label maps
  // to. PathExpression::Parse calls this once per parsed automaton; the
  // table is immutable afterwards, so concurrent evaluations share it
  // without re-hashing labels (any later AddTransition/SetStart discards
  // it). StartMovesFor then answers by reference in O(1).
  void PrecomputeStartMoves();
  // Precomputed StartMove(label). Requires PrecomputeStartMoves().
  const std::vector<int>& StartMovesFor(LabelId label) const;

  // True if some start state can consume `label` (or has a wildcard edge).
  // Used to seed the product search only with plausible nodes.
  bool CanStartWith(LabelId label) const;
  // True if a wildcard edge leaves some start state.
  bool AnyFromStart() const;

  // The automaton recognizing the reversed language, start moves
  // precomputed.
  Automaton Reverse() const;

  // Length (in symbols) of the longest word in the language restricted to
  // useful states, or -1 if the language is infinite. Words of length 0 are
  // ignored (they cannot match any node path). Returns -2 for the empty
  // language.
  int MaxWordLength() const;

  // Debug rendering.
  std::string DebugString() const;

  // --- construction (used by the compiler and Reverse) ------------------
  Automaton() = default;
  // `num_states` states, none start or accepting, without transitions.
  explicit Automaton(int num_states);
  void AddTransition(int from, Symbol symbol, int to);
  void SetStart(int q, bool v);
  void SetAccept(int q, bool v) { accept_[static_cast<size_t>(q)] = v; }

 private:
  std::vector<std::vector<Transition>> transitions_;
  std::vector<bool> start_;
  std::vector<bool> accept_;
  std::vector<int> start_list_;

  // PrecomputeStartMoves output (see above).
  bool start_moves_ready_ = false;
  std::vector<int> wildcard_start_moves_;
  std::unordered_map<LabelId, std::vector<int>> start_moves_by_label_;
};

// Compiles `ast` against `labels`. Tag names not present in `labels` become
// kUnknownLabel transitions (match nothing). The result keeps only the
// start state and one state per label or `_` position, numbered in the
// order Thompson construction creates them; every state is reachable from
// the start and can reach an accept state.
Automaton CompileAst(const AstNode& ast, const LabelTable& labels);

}  // namespace dki

#endif  // DKINDEX_PATHEXPR_NFA_H_

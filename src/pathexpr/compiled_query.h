#ifndef DKINDEX_PATHEXPR_COMPILED_QUERY_H_
#define DKINDEX_PATHEXPR_COMPILED_QUERY_H_

#include <cstdint>
#include <vector>

#include "graph/label_table.h"
#include "pathexpr/nfa.h"

namespace dki {

// A query automaton compiled once, at parse time, into the flat move tables
// the frozen read path (query/frozen_view.h) traverses: the forward tables
// drive the index BFS, the reverse tables (the automaton Automaton::Reverse
// would build) validate uncertain candidates bottom-up.
//
// Columns are per-query label classes, the compression RE2's DFA applies to
// bytes: one class per label the automaton names, numbered in ascending
// label order, plus a last "other" class for every label it does not name.
// All labels of a class move alike, so a table is states x (named labels
// + 1) however many labels a graph has, and labels a graph appends after
// the parse land in "other": the tables serve every view the expression is
// evaluated on. (Query tags unknown at parse time are kUnknownLabel edges,
// which match nothing and name no class.)
//
// Row (state, class) lists the successors Automaton::Move appends for a
// label of the class, deduplicated keeping the FIRST appearance (as the
// caller's visited set would), so traversals visit pairs in the reference
// evaluator's order. Start row (class) is Automaton::StartMovesFor, sorted
// and unique. Everything lives in one int32 allocation; the object is
// immutable and shared freely between threads.
class CompiledQuery {
 public:
  // One direction's tables: a view into the owning CompiledQuery, valid
  // while it lives.
  class Tables {
   public:
    int32_t num_states() const { return num_states_; }
    bool accepts(int32_t state) const { return accept_[state] != 0; }
    const int32_t* moves_begin(int32_t state, int32_t cls) const {
      return move_to_ + move_off_[state * num_classes_ + cls];
    }
    const int32_t* moves_end(int32_t state, int32_t cls) const {
      return move_to_ + move_off_[state * num_classes_ + cls + 1];
    }
    const int32_t* starts_begin(int32_t cls) const {
      return start_to_ + start_off_[cls];
    }
    const int32_t* starts_end(int32_t cls) const {
      return start_to_ + start_off_[cls + 1];
    }
    bool HasStarts(int32_t cls) const {
      return start_off_[cls] != start_off_[cls + 1];
    }

   private:
    friend class CompiledQuery;
    int32_t num_states_ = 0;
    int32_t num_classes_ = 0;
    const int32_t* accept_ = nullptr;     // [state]: 1 if accepting
    const int32_t* move_off_ = nullptr;   // [state * classes + cls], +1 end
    const int32_t* move_to_ = nullptr;
    const int32_t* start_off_ = nullptr;  // [cls], +1 end
    const int32_t* start_to_ = nullptr;
  };

  CompiledQuery() = default;
  explicit CompiledQuery(const Automaton& forward);

  Tables forward() const { return TablesAt(fwd_); }
  Tables reverse() const { return TablesAt(rev_); }

  // Classes are the named labels, then "other".
  int32_t other_class() const { return num_classes_ - 1; }
  // The class of a label of any graph. Named labels sit below map_size_.
  int32_t ClassOf(LabelId label) const {
    return static_cast<uint32_t>(label) < static_cast<uint32_t>(map_size_)
               ? data_[static_cast<size_t>(num_classes_ - 1 + label)]
               : num_classes_ - 1;
  }
  // The label of a named class (cls < other_class()).
  LabelId ClassLabel(int32_t cls) const {
    return data_[static_cast<size_t>(cls)];
  }

  // Calls fn(label, cls) for every label below `num_labels` whose forward
  // start row is non-empty, in ascending label order: every label when a
  // wildcard leaves a start state, else only the named start labels.
  template <typename Fn>
  void ForEachStartLabel(int32_t num_labels, Fn&& fn) const {
    const Tables fwd = forward();
    if (fwd.HasStarts(other_class())) {
      for (LabelId lab = 0; lab < num_labels; ++lab) fn(lab, ClassOf(lab));
      return;
    }
    for (int32_t cls = 0; cls < other_class(); ++cls) {
      const LabelId lab = ClassLabel(cls);
      if (lab < num_labels && fwd.HasStarts(cls)) fn(lab, cls);
    }
  }

 private:
  // Offsets of one direction's sections in data_.
  struct Sections {
    int32_t accept = 0;
    int32_t move_off = 0;
    int32_t move_to = 0;
    int32_t start_off = 0;
    int32_t start_to = 0;
  };

  Tables TablesAt(const Sections& s) const;
  // Appends one direction's sections to `out`: rows(q) yields state q's
  // transitions as a (begin, end) pair in Move order, `starts` lists the
  // direction's start states and accepts(q) flags its accepting ones.
  template <typename Rows, typename Accepts>
  Sections AppendDirection(std::vector<int32_t>* out,
                           const std::vector<LabelId>& named,
                           const Rows& rows, const std::vector<int>& starts,
                           const Accepts& accepts) const;

  int32_t num_states_ = 0;
  int32_t num_classes_ = 1;
  int32_t map_size_ = 0;  // largest named label + 1 (0 when none)
  // [0, classes - 1): the named labels; then map_size_ class ids; then the
  // forward and the reverse sections.
  std::vector<int32_t> data_;
  Sections fwd_;
  Sections rev_;
};

}  // namespace dki

#endif  // DKINDEX_PATHEXPR_COMPILED_QUERY_H_

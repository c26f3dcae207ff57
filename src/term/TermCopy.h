//===- TermCopy.h - Copying terms across stores -----------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Copies terms between stores (or within one), resolving bindings as it
/// goes and renaming unbound variables apart. The engine uses it to freeze
/// answers (solver heap -> table store) and to return them; program clauses
/// are renamed through their compiled skeletons instead (term/TermSkel.h).
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_TERMCOPY_H
#define LPA_TERM_TERMCOPY_H

#include "term/TermStore.h"

#include <utility>
#include <vector>

namespace lpa {

/// A flat map from TermRef to TermRef: source-store variables to their
/// fresh copies in the destination. Reusing one map across several
/// copyTerm calls preserves variable sharing between the copied terms
/// (e.g. the slots of one answer tuple).
///
/// Renamings are tiny in the engine (an answer binds a handful of
/// variables), so entries live in one vector searched linearly; past
/// LinearLimit entries an open-addressing index over the same vector takes
/// over. clear() keeps the capacity, so a renaming reused as scratch stops
/// allocating once warm.
class VarRenaming {
public:
  /// \returns the image of \p From, or InvalidTerm.
  TermRef lookup(TermRef From) const {
    if (Index.empty()) {
      for (const auto &[K, V] : Entries)
        if (K == From)
          return V;
      return InvalidTerm;
    }
    return lookupIndexed(From);
  }

  /// Maps \p From (not yet mapped) to \p To.
  void insert(TermRef From, TermRef To);

  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }

  /// Drops every entry, keeping the storage.
  void clear();

  /// Entries are searched linearly up to this many.
  static constexpr size_t LinearLimit = 16;

private:
  TermRef lookupIndexed(TermRef From) const;
  void rebuildIndex();

  std::vector<std::pair<TermRef, TermRef>> Entries;
  /// Open-addressing slots holding entry index + 1 (0 = empty); empty
  /// while the map is small.
  std::vector<uint32_t> Index;
};

/// Reusable working storage of copyTerm: its traversal stack and the
/// memo that preserves sharing of compound subterms within one copy. A
/// caller that copies in a loop keeps one and stops allocating.
struct CopyScratch {
  std::vector<std::pair<TermRef, TermRef>> Work; ///< (source, destination slot)
  VarRenaming Memo;
};

/// Copies \p T from \p Src into \p Dst.
///
/// Bound variables are chased, so the copy is the *resolved* term. Unbound
/// variables become fresh Dst variables, consistently via \p Renaming.
/// \p Src and \p Dst may alias (used by the solver to snapshot answers).
/// The copy is built top-down and iteratively, so term depth is bounded
/// only by memory.
TermRef copyTerm(const TermStore &Src, TermRef T, TermStore &Dst,
                 VarRenaming &Renaming, CopyScratch &Scratch);

/// As above with throwaway working storage.
TermRef copyTerm(const TermStore &Src, TermRef T, TermStore &Dst,
                 VarRenaming &Renaming);

/// Convenience overload with a throwaway renaming.
TermRef copyTerm(const TermStore &Src, TermRef T, TermStore &Dst);

/// \returns the number of cells (nodes) of the resolved term \p T, counting
/// shared subterms once per occurrence. Used for table-space accounting.
size_t termSizeCells(const TermStore &Store, TermRef T);

} // namespace lpa

#endif // LPA_TERM_TERMCOPY_H

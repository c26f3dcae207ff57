//===- TermCopy.cpp - Copying terms across stores --------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/TermCopy.h"

#include <cassert>

using namespace lpa;

namespace {

inline size_t renamingHash(TermRef K) {
  return static_cast<size_t>((uint64_t(K) * 0x9e3779b97f4a7c15ULL) >> 32);
}

} // namespace

void VarRenaming::insert(TermRef From, TermRef To) {
  assert(lookup(From) == InvalidTerm && "variable renamed twice");
  Entries.emplace_back(From, To);
  if (Index.empty()) {
    if (Entries.size() > LinearLimit)
      rebuildIndex();
    return;
  }
  if (Entries.size() * 2 > Index.size()) {
    rebuildIndex();
    return;
  }
  size_t Mask = Index.size() - 1;
  size_t H = renamingHash(From) & Mask;
  while (Index[H] != 0)
    H = (H + 1) & Mask;
  Index[H] = static_cast<uint32_t>(Entries.size());
}

void VarRenaming::rebuildIndex() {
  size_t Size = 64;
  while (Size < Entries.size() * 4)
    Size *= 2;
  Index.assign(Size, 0);
  size_t Mask = Size - 1;
  for (size_t I = 0; I < Entries.size(); ++I) {
    size_t H = renamingHash(Entries[I].first) & Mask;
    while (Index[H] != 0)
      H = (H + 1) & Mask;
    Index[H] = static_cast<uint32_t>(I + 1);
  }
}

TermRef VarRenaming::lookupIndexed(TermRef From) const {
  size_t Mask = Index.size() - 1;
  for (size_t H = renamingHash(From) & Mask; Index[H] != 0;
       H = (H + 1) & Mask) {
    const auto &E = Entries[Index[H] - 1];
    if (E.first == From)
      return E.second;
  }
  return InvalidTerm;
}

void VarRenaming::clear() {
  Entries.clear();
  Index.clear();
}

TermRef lpa::copyTerm(const TermStore &Src, TermRef T, TermStore &Dst,
                      VarRenaming &Renaming, CopyScratch &Scratch) {
  // Top-down construction, WAM put_structure style: a compound is
  // allocated with unbound argument slots, and each (source subterm,
  // destination slot) pair on the work stack fills one slot. A variable's
  // first occurrence inside a compound is the slot itself. Iterative, so
  // the long right-nested lists and conjunctions of the corpus cannot
  // overflow the C++ stack.
  auto &Work = Scratch.Work;
  VarRenaming &Memo = Scratch.Memo; // Shared compound subterms, per copy.
  Work.clear();
  Memo.clear();

  // Opens compound \p D: allocates its copy and queues its arguments so
  // the first is filled first (first-occurrence variable order).
  auto Open = [&](TermRef D) {
    uint32_t Arity = Src.arity(D);
    TermRef Copy = Dst.mkStructSlots(Src.symbol(D), Arity);
    Memo.insert(D, Copy);
    for (uint32_t I = Arity; I-- > 0;)
      Work.push_back({Src.arg(D, I), Copy + 1 + I});
    return Copy;
  };

  TermRef D = Src.deref(T);
  TermRef Root;
  switch (Src.tag(D)) {
  case TermTag::Ref:
    Root = Renaming.lookup(D);
    if (Root == InvalidTerm) {
      Root = Dst.mkVar();
      Renaming.insert(D, Root);
    }
    return Root;
  case TermTag::Atom:
    return Dst.mkAtom(Src.symbol(D));
  case TermTag::Int:
    return Dst.mkInt(Src.intValue(D));
  case TermTag::Struct:
    Root = Open(D);
    break;
  }

  while (!Work.empty()) {
    auto [S, Slot] = Work.back();
    Work.pop_back();
    D = Src.deref(S);
    switch (Src.tag(D)) {
    case TermTag::Ref: {
      TermRef V = Renaming.lookup(D);
      if (V == InvalidTerm)
        Renaming.insert(D, Slot); // The slot is the fresh variable.
      else
        Dst.fillSlot(Slot, V);
      break;
    }
    case TermTag::Atom:
      Dst.fillSlotAtom(Slot, Src.symbol(D));
      break;
    case TermTag::Int:
      Dst.fillSlotInt(Slot, Src.intValue(D));
      break;
    case TermTag::Struct: {
      TermRef Hit = Memo.lookup(D);
      Dst.fillSlot(Slot, Hit != InvalidTerm ? Hit : Open(D));
      break;
    }
    }
  }
  return Root;
}

TermRef lpa::copyTerm(const TermStore &Src, TermRef T, TermStore &Dst,
                      VarRenaming &Renaming) {
  CopyScratch Scratch;
  return copyTerm(Src, T, Dst, Renaming, Scratch);
}

TermRef lpa::copyTerm(const TermStore &Src, TermRef T, TermStore &Dst) {
  VarRenaming Renaming;
  return copyTerm(Src, T, Dst, Renaming);
}

size_t lpa::termSizeCells(const TermStore &Store, TermRef T) {
  size_t Count = 0;
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    ++Count;
    if (Store.tag(Cur) == TermTag::Struct) {
      Count += Store.arity(Cur); // Argument slots.
      for (uint32_t I = 0, E = Store.arity(Cur); I < E; ++I)
        Work.push_back(Store.arg(Cur, I));
    }
  }
  return Count;
}

//===- TermSkel.cpp - Compiled term skeletons ------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/TermSkel.h"

using namespace lpa;

void lpa::compileSkeleton(const TermStore &Store, TermRef T,
                          VarRenaming &Numbering, std::vector<SkelCell> &Code,
                          SkelScratch &Scratch) {
  std::vector<TermRef> &Work = Scratch.Terms;
  Work.assign(1, T);
  while (!Work.empty()) {
    TermRef D = Store.deref(Work.back());
    Work.pop_back();
    switch (Store.tag(D)) {
    case TermTag::Ref: {
      TermRef N = Numbering.lookup(D);
      if (N == InvalidTerm) {
        N = static_cast<TermRef>(Numbering.size());
        Numbering.insert(D, N);
      }
      Code.push_back({SkelCell::Var, 0, N});
      break;
    }
    case TermTag::Atom:
      Code.push_back({SkelCell::Atom, 0, Store.symbol(D)});
      break;
    case TermTag::Int:
      Code.push_back({SkelCell::Int, 0, Store.intValue(D)});
      break;
    case TermTag::Struct:
      Code.push_back({SkelCell::Struct, Store.arity(D), Store.symbol(D)});
      for (uint32_t I = Store.arity(D); I-- > 0;)
        Work.push_back(Store.arg(D, I));
      break;
    }
  }
}

TermRef lpa::instantiateSkeleton(TermStore &Dst,
                                 std::span<const SkelCell> Code, uint32_t &PC,
                                 std::span<TermRef> Frame,
                                 SkelScratch &Scratch) {
  // Preorder cells fill preorder slots: each cell after the root fills the
  // slot on top of the stack, and a compound pushes its own slots so its
  // first argument is filled next.
  std::vector<TermRef> &Slots = Scratch.Slots;
  size_t Base = Slots.size();
  TermRef Root = InvalidTerm;
  do {
    const SkelCell &C = Code[PC++];
    TermRef Slot = InvalidTerm;
    if (Root != InvalidTerm) {
      Slot = Slots.back();
      Slots.pop_back();
    }
    TermRef Made = InvalidTerm;
    switch (C.K) {
    case SkelCell::Var: {
      TermRef &V = Frame[static_cast<size_t>(C.Val)];
      if (V == InvalidTerm) {
        // First occurrence: an argument slot is itself the fresh variable.
        V = Slot != InvalidTerm ? Slot : Dst.mkVar();
        Made = V;
      } else {
        Made = V;
        if (Slot != InvalidTerm)
          Dst.fillSlot(Slot, V);
      }
      break;
    }
    case SkelCell::Atom:
      if (Slot != InvalidTerm)
        Dst.fillSlotAtom(Slot, static_cast<SymbolId>(C.Val));
      else
        Made = Dst.mkAtom(static_cast<SymbolId>(C.Val));
      break;
    case SkelCell::Int:
      if (Slot != InvalidTerm)
        Dst.fillSlotInt(Slot, C.Val);
      else
        Made = Dst.mkInt(C.Val);
      break;
    case SkelCell::Struct:
      Made = Dst.mkStructSlots(static_cast<SymbolId>(C.Val), C.Arity);
      if (Slot != InvalidTerm)
        Dst.fillSlot(Slot, Made);
      for (uint32_t I = C.Arity; I-- > 0;)
        Slots.push_back(Made + 1 + I);
      break;
    }
    if (Root == InvalidTerm)
      Root = Made;
  } while (Slots.size() > Base);
  return Root;
}

bool lpa::matchSkeleton(TermStore &Store, TermRef T,
                        std::span<const SkelCell> Code, uint32_t &PC,
                        std::span<TermRef> Frame, bool OccursCheck,
                        SkelScratch &Scratch) {
  std::vector<TermRef> &Terms = Scratch.Terms;
  Terms.clear();
  Terms.push_back(T);
  while (!Terms.empty()) {
    TermRef H = Terms.back();
    Terms.pop_back();
    const SkelCell &C = Code[PC];
    switch (C.K) {
    case SkelCell::Var: {
      ++PC;
      TermRef &V = Frame[static_cast<size_t>(C.Val)];
      if (V == InvalidTerm)
        V = H; // First occurrence: no binding, no cell.
      else if (!unify(Store, V, H, OccursCheck, Scratch.Unify))
        return false;
      break;
    }
    case SkelCell::Atom:
    case SkelCell::Int: {
      ++PC;
      TermRef D = Store.deref(H);
      TermTag Tag = Store.tag(D);
      if (Tag == TermTag::Ref) {
        Store.bind(D, C.K == SkelCell::Atom
                          ? Store.mkAtom(static_cast<SymbolId>(C.Val))
                          : Store.mkInt(C.Val));
        break;
      }
      if (C.K == SkelCell::Atom
              ? Tag != TermTag::Atom ||
                    Store.symbol(D) != static_cast<SymbolId>(C.Val)
              : Tag != TermTag::Int || Store.intValue(D) != C.Val)
        return false;
      break;
    }
    case SkelCell::Struct: {
      TermRef D = Store.deref(H);
      TermTag Tag = Store.tag(D);
      if (Tag == TermTag::Ref) {
        // Write mode: build this subterm and bind the variable to it.
        TermRef Built = instantiateSkeleton(Store, Code, PC, Frame, Scratch);
        if (OccursCheck && occursIn(Store, D, Built))
          return false;
        Store.bind(D, Built);
        break;
      }
      if (Tag != TermTag::Struct ||
          Store.symbol(D) != static_cast<SymbolId>(C.Val) ||
          Store.arity(D) != C.Arity)
        return false;
      ++PC;
      for (uint32_t I = C.Arity; I-- > 0;)
        Terms.push_back(Store.arg(D, I));
      break;
    }
    }
  }
  return true;
}

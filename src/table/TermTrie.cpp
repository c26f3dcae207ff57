//===- TermTrie.cpp - Arena-allocated term tries for tabling ---------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "table/TermTrie.h"

#include <algorithm>

using namespace lpa;

namespace {

/// Encodes the token of one dereferenced cell. Struct cells also require
/// descending into the arguments, which the walk loops handle.
inline uint64_t structPayload(SymbolId Sym, uint32_t Arity) {
  return (uint64_t(Sym) << 32) | Arity;
}

} // namespace

void TermTrie::rebuildChildTable(uint32_t Parent, size_t Size) {
  ChildTable &T = HashChildren[Nodes[Parent].HashIdx];
  T.assign(Size, NoValue);
  size_t Mask = Size - 1;
  for (uint32_t C = Nodes[Parent].Child; C != NoValue; C = Nodes[C].Sibling) {
    size_t H = tokenHash(Nodes[C].K, Nodes[C].Payload) & Mask;
    while (T[H] != NoValue)
      H = (H + 1) & Mask;
    T[H] = C;
  }
}

uint32_t TermTrie::stepInsert(uint32_t Parent, uint8_t K, uint64_t P,
                              bool &Created) {
  if (uint32_t C = stepFind(Parent, K, P); C != NoValue)
    return C;

  // Miss: allocate the child. (Indexed access throughout -- push_back may
  // reallocate the node arena.) Cold tables are reallocation-bound under
  // the default doubling growth, so grow 4x until the arena is sizeable.
  if (Nodes.size() == Nodes.capacity())
    Nodes.reserve(Nodes.capacity() >= 4096
                      ? Nodes.capacity() * 2
                      : std::max<size_t>(64, Nodes.capacity() * 4));
  uint32_t NewIdx = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(Node{P, NoValue, Nodes[Parent].Child, NoValue, NoValue, 0, K});
  Nodes[Parent].Child = NewIdx;
  uint32_t Fanout = ++Nodes[Parent].ChildCount;
  if (Nodes[Parent].HashIdx != NoValue) {
    ChildTable &T = HashChildren[Nodes[Parent].HashIdx];
    if (Fanout * 2 > T.size()) {
      rebuildChildTable(Parent, T.size() * 2);
    } else {
      size_t Mask = T.size() - 1;
      size_t H = tokenHash(K, P) & Mask;
      while (T[H] != NoValue)
        H = (H + 1) & Mask;
      T[H] = NewIdx;
    }
  } else if (Fanout > EscalateFanout) {
    // Escalate: index the whole chain. The chain stays linked so
    // memoryBytes/clear need no special cases.
    Nodes[Parent].HashIdx = static_cast<uint32_t>(HashChildren.size());
    HashChildren.emplace_back();
    rebuildChildTable(Parent, 4 * EscalateFanout);
  }
  Created = true;
  return NewIdx;
}

uint32_t TermTrie::stepFind(uint32_t Parent, uint8_t K, uint64_t P) const {
  const Node &PN = Nodes[Parent];
  if (PN.HashIdx != NoValue) {
    const ChildTable &T = HashChildren[PN.HashIdx];
    size_t Mask = T.size() - 1;
    for (size_t H = tokenHash(K, P) & Mask; T[H] != NoValue;
         H = (H + 1) & Mask)
      if (Nodes[T[H]].K == K && Nodes[T[H]].Payload == P)
        return T[H];
    return NoValue;
  }
  for (uint32_t C = PN.Child; C != NoValue; C = Nodes[C].Sibling)
    if (Nodes[C].K == K && Nodes[C].Payload == P)
      return C;
  return NoValue;
}

TermTrie::InsertResult TermTrie::insert(const TermStore &Store,
                                        std::span<const TermRef> Key,
                                        uint32_t NewValue,
                                        std::vector<TermRef> *VarsOut,
                                        WalkScratch *Scratch) {
  WalkScratch Local;
  std::vector<TermRef> &WorkScratch = (Scratch ? *Scratch : Local).Work;
  std::vector<TermRef> &VarScratch = (Scratch ? *Scratch : Local).Vars;
  VarScratch.clear();
  WorkScratch.clear();
  for (size_t I = Key.size(); I-- > 0;)
    WorkScratch.push_back(Key[I]);

  uint32_t Cur = 0;
  uint32_t Created = 0;
  while (!WorkScratch.empty()) {
    TermRef T = Store.deref(WorkScratch.back());
    WorkScratch.pop_back();
    uint8_t K = KVar;
    uint64_t P = 0;
    switch (Store.tag(T)) {
    case TermTag::Ref: {
      // First-occurrence numbering: path equality must coincide with
      // variance, exactly like canonicalKey. Linear scan -- keys in the
      // analyses carry a handful of variables.
      auto It = std::find(VarScratch.begin(), VarScratch.end(), T);
      uint32_t N;
      if (It == VarScratch.end()) {
        N = static_cast<uint32_t>(VarScratch.size());
        VarScratch.push_back(T);
        if (VarsOut)
          VarsOut->push_back(T);
      } else {
        N = static_cast<uint32_t>(It - VarScratch.begin());
      }
      K = KVar;
      P = N;
      break;
    }
    case TermTag::Atom:
      K = KAtom;
      P = Store.symbol(T);
      break;
    case TermTag::Int:
      K = KInt;
      P = static_cast<uint64_t>(Store.intValue(T));
      break;
    case TermTag::Struct:
      K = KStruct;
      P = structPayload(Store.symbol(T), Store.arity(T));
      for (uint32_t I = Store.arity(T); I-- > 0;)
        WorkScratch.push_back(Store.arg(T, I));
      break;
    }
    bool C = false;
    Cur = stepInsert(Cur, K, P, C);
    Created += C;
  }

  Node &Leaf = Nodes[Cur];
  if (Leaf.Value == NoValue) {
    Leaf.Value = NewValue;
    ++NumValues;
    return {NewValue, true, Created};
  }
  return {Leaf.Value, false, Created};
}

uint32_t TermTrie::find(const TermStore &Store,
                        std::span<const TermRef> Key) const {
  // Local scratch: find() is const and cold next to insert().
  std::vector<TermRef> Work;
  std::vector<TermRef> Vars;
  for (size_t I = Key.size(); I-- > 0;)
    Work.push_back(Key[I]);

  uint32_t Cur = 0;
  while (!Work.empty()) {
    TermRef T = Store.deref(Work.back());
    Work.pop_back();
    uint8_t K = KVar;
    uint64_t P = 0;
    switch (Store.tag(T)) {
    case TermTag::Ref: {
      auto It = std::find(Vars.begin(), Vars.end(), T);
      uint32_t N;
      if (It == Vars.end()) {
        N = static_cast<uint32_t>(Vars.size());
        Vars.push_back(T);
      } else {
        N = static_cast<uint32_t>(It - Vars.begin());
      }
      K = KVar;
      P = N;
      break;
    }
    case TermTag::Atom:
      K = KAtom;
      P = Store.symbol(T);
      break;
    case TermTag::Int:
      K = KInt;
      P = static_cast<uint64_t>(Store.intValue(T));
      break;
    case TermTag::Struct:
      K = KStruct;
      P = structPayload(Store.symbol(T), Store.arity(T));
      for (uint32_t I = Store.arity(T); I-- > 0;)
        Work.push_back(Store.arg(T, I));
      break;
    }
    Cur = stepFind(Cur, K, P);
    if (Cur == NoValue)
      return NoValue;
  }
  return Nodes[Cur].Value;
}

size_t TermTrie::memoryBytes() const {
  size_t Bytes = Nodes.capacity() * sizeof(Node);
  Bytes += HashChildren.capacity() * sizeof(ChildTable);
  for (const ChildTable &T : HashChildren)
    Bytes += T.capacity() * sizeof(uint32_t);
  return Bytes;
}

void TermTrie::clear() {
  Nodes.clear();
  HashChildren.clear();
  NumValues = 0;
  initRoot();
}

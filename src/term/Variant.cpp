//===- Variant.cpp - Canonical variant keys -------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/Variant.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

using namespace lpa;

namespace {

/// Appends raw bytes of \p V to \p Out.
template <typename T> void appendBytes(std::string &Out, T V) {
  char Buf[sizeof(T)];
  std::memcpy(Buf, &V, sizeof(T));
  Out.append(Buf, sizeof(T));
}

} // namespace

void lpa::appendCanonicalKey(const TermStore &Store, TermRef T,
                             std::string &Out) {
  std::unordered_map<TermRef, uint32_t> VarNum;
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    switch (Store.tag(Cur)) {
    case TermTag::Ref: {
      auto [It, Inserted] =
          VarNum.emplace(Cur, static_cast<uint32_t>(VarNum.size()));
      Out.push_back('V');
      appendBytes(Out, It->second);
      (void)Inserted;
      break;
    }
    case TermTag::Atom:
      Out.push_back('A');
      appendBytes(Out, Store.symbol(Cur));
      break;
    case TermTag::Int:
      Out.push_back('I');
      appendBytes(Out, Store.intValue(Cur));
      break;
    case TermTag::Struct:
      Out.push_back('S');
      appendBytes(Out, Store.symbol(Cur));
      appendBytes(Out, Store.arity(Cur));
      // Reverse push for left-to-right traversal (variable numbering).
      for (uint32_t I = Store.arity(Cur); I-- > 0;)
        Work.push_back(Store.arg(Cur, I));
      break;
    }
  }
}

std::string lpa::canonicalKey(const TermStore &Store, TermRef T) {
  std::string Out;
  appendCanonicalKey(Store, T, Out);
  return Out;
}

void lpa::collectFreeVars(const TermStore &Store, TermRef T,
                          std::vector<TermRef> &Vars) {
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    switch (Store.tag(Cur)) {
    case TermTag::Ref:
      if (std::find(Vars.begin(), Vars.end(), Cur) == Vars.end())
        Vars.push_back(Cur);
      break;
    case TermTag::Struct:
      // Reverse push for left-to-right traversal (numbering order).
      for (uint32_t I = Store.arity(Cur); I-- > 0;)
        Work.push_back(Store.arg(Cur, I));
      break;
    case TermTag::Atom:
    case TermTag::Int:
      break;
    }
  }
}

//===- TermTrie.h - Arena-allocated term tries for tabling ------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Term tries: the table representation XSB adopted for subgoal and answer
/// tables (Swift & Warren). A trie node is labelled with one token of the
/// canonical preorder encoding of a term -- Var(n), Atom(sym), Int(v) or
/// Struct(sym, arity) -- with variables numbered in first-occurrence order,
/// so a root-to-leaf path spells exactly the canonicalKey() byte string of
/// a term and path equality coincides with variance. Unlike the string
/// keys they replace, tries never materialize an intermediate encoding:
/// ONE left-to-right walk of the term both checks membership and performs
/// the insert (check/insert fusion), sharing common prefixes between all
/// keys in the table.
///
/// Keys may span several terms (a "tuple"): the walk continues across the
/// terms with a single shared variable numbering. This is how substitution
/// factoring stores answers -- as the tuple of bindings of the call's free
/// variables rather than a copy of the whole call instance.
///
/// Node children start as a first-child/next-sibling chain (most interior
/// nodes have one child) and escalate to a hash table past a small fanout,
/// mirroring XSB's trie hashing. The table is open-addressed over child
/// indices, one flat allocation per escalated node.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TABLE_TERMTRIE_H
#define LPA_TABLE_TERMTRIE_H

#include "term/TermStore.h"

#include <cstdint>
#include <span>
#include <vector>

namespace lpa {

/// One term trie: a set of term (tuple) keys, each mapped to a uint32_t
/// value assigned at insertion. Lookup and insertion are fused into a
/// single walk of the key.
class TermTrie {
public:
  /// Sentinel for "no value stored".
  static constexpr uint32_t NoValue = ~uint32_t(0);

  /// Fanout at which a node's child chain escalates to a hash table.
  static constexpr uint32_t EscalateFanout = 8;

  struct InsertResult {
    uint32_t Value;       ///< Stored value (existing one on a hit).
    bool Inserted;        ///< True if the key was new.
    uint32_t NodesCreated; ///< Trie nodes allocated by this walk.
  };

  TermTrie() { initRoot(); }

  /// Working stacks of one insert walk. A caller that inserts in a loop
  /// keeps one and passes it; walks do not nest, so one serves every trie
  /// the caller owns.
  struct WalkScratch {
    std::vector<TermRef> Work;
    std::vector<TermRef> Vars; ///< Key variables in first-occurrence order.
  };

  /// Fused check/insert of the key formed by walking \p Key left to right
  /// (one shared variable numbering across all terms). If the key is
  /// present, returns its value; otherwise stores \p NewValue. \p VarsOut,
  /// when non-null, has the distinct unbound variables of the key appended
  /// in numbering (first-occurrence) order -- the call's free variables, in
  /// the order substitution-factored answers bind them. \p Scratch, when
  /// non-null, holds the walk's stacks (otherwise they are local).
  InsertResult insert(const TermStore &Store, std::span<const TermRef> Key,
                      uint32_t NewValue,
                      std::vector<TermRef> *VarsOut = nullptr,
                      WalkScratch *Scratch = nullptr);

  /// Single-term key convenience.
  InsertResult insert(const TermStore &Store, TermRef T, uint32_t NewValue,
                      std::vector<TermRef> *VarsOut = nullptr,
                      WalkScratch *Scratch = nullptr) {
    TermRef K[1] = {T};
    return insert(Store, std::span<const TermRef>(K, 1), NewValue, VarsOut,
                  Scratch);
  }

  /// Pure lookup; \returns the stored value or NoValue.
  uint32_t find(const TermStore &Store, std::span<const TermRef> Key) const;
  uint32_t find(const TermStore &Store, TermRef T) const {
    TermRef K[1] = {T};
    return find(Store, std::span<const TermRef>(K, 1));
  }

  /// Number of trie nodes (excluding the root).
  size_t nodeCount() const { return Nodes.size() - 1; }

  /// Number of keys stored.
  size_t valueCount() const { return NumValues; }

  /// Bytes held by nodes and hash children (table-space
  /// accounting; the paper's "Table space" column).
  size_t memoryBytes() const;

  /// Drops all keys.
  void clear();

private:
  /// Token kinds; kept distinct from TermTag so Atom(sym) can never alias
  /// Struct(sym, arity) or a root marker.
  enum Kind : uint8_t { KVar, KAtom, KInt, KStruct, KRoot };

  struct Node {
    uint64_t Payload;          ///< Var number / symbol / int bits / sym+arity.
    uint32_t Child = NoValue;  ///< First child.
    uint32_t Sibling = NoValue;
    uint32_t Value = NoValue;  ///< Key value when a key ends here.
    uint32_t HashIdx = NoValue; ///< Index into HashChildren once escalated.
    uint32_t ChildCount = 0;
    uint8_t K;
  };

  /// Children of an escalated node: open addressing with linear probing
  /// over child node indices (NoValue = empty slot), at most half full.
  /// The token is read back from the child node itself.
  using ChildTable = std::vector<uint32_t>;

  static size_t tokenHash(uint8_t K, uint64_t P) {
    // Splitmix-style scramble over payload and kind.
    uint64_t X = P + 0x9e3779b97f4a7c15ULL * (K + 1);
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(X ^ (X >> 31));
  }

  /// Rebuilds \p Parent's child table with \p Size slots from its chain.
  void rebuildChildTable(uint32_t Parent, size_t Size);

  void initRoot() {
    Nodes.push_back(Node{0, NoValue, NoValue, NoValue, NoValue, 0, KRoot});
  }

  /// Descends from \p Parent along the \p K / \p P token, creating the
  /// child if absent. \p Created reports an allocation.
  uint32_t stepInsert(uint32_t Parent, uint8_t K, uint64_t P, bool &Created);

  /// \returns the child of \p Parent labelled \p K / \p P, or NoValue.
  uint32_t stepFind(uint32_t Parent, uint8_t K, uint64_t P) const;

  std::vector<Node> Nodes;          ///< Nodes[0] is the root.
  std::vector<ChildTable> HashChildren;
  size_t NumValues = 0;
};

} // namespace lpa

#endif // LPA_TABLE_TERMTRIE_H

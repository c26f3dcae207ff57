//===- ConcurrentTrie.h - Shared term tries for parallel tabling -*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A term trie that several evaluation workers may read and insert into
/// concurrently. Same canonical preorder token encoding as TermTrie (path
/// equality coincides with variance), different storage discipline:
///
///  - Nodes live in fixed-size chunks that are never reallocated, so a
///    `Node *` observed by one thread stays valid forever. (TermTrie's
///    `std::vector<Node>` arena reallocates on growth — fine single-
///    threaded, fatal under concurrent readers.)
///  - find() is lock-free: it walks acquire-loaded child pointers. A node
///    becomes reachable only via a release store of the parent's Child
///    pointer, after its Payload/Kind/Sibling fields are fully written, so
///    readers never observe a half-built node. Sibling links and token
///    fields are immutable after publication (children are prepended).
///  - insert() is optimistic check-then-lock: first the same lock-free
///    walk; only on a miss (or an unset leaf value) does it take the
///    per-trie mutex, re-walk the missed suffix (chains only grow), and
///    extend. The uncontended warm path — the common case once tables
///    fill — never touches the lock.
///  - A key's value is claimed exactly once: the leaf Value transitions
///    NoValue -> value under the mutex, so exactly one insert() per
///    distinct key reports Inserted (the unique-claim invariant the
///    shared-table property test hammers).
///
/// Its one use is the SharedTableSpace shard index (variant call -> claim
/// entry), the only trie several workers touch. Answer tables are plain
/// TermTries even in parallel workers: a worker's subgoals live in that
/// worker's Solver, which one pool thread drives, and a completed table
/// crosses threads only as a published copy.
///
/// No hash escalation: child chains stay linked lists. Shard striping
/// keeps any one trie's chains short.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TABLE_CONCURRENTTRIE_H
#define LPA_TABLE_CONCURRENTTRIE_H

#include "term/TermStore.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace lpa {

class ConcurrentTermTrie {
public:
  /// Sentinel for "no value stored". Same convention as TermTrie.
  static constexpr uint32_t NoValue = ~uint32_t(0);

  struct InsertResult {
    uint32_t Value;        ///< Stored value (the existing one on a hit).
    bool Inserted;         ///< True if this call claimed the key.
    uint32_t NodesCreated; ///< Trie nodes allocated by this walk.
  };

  ConcurrentTermTrie() = default;
  ConcurrentTermTrie(const ConcurrentTermTrie &) = delete;
  ConcurrentTermTrie &operator=(const ConcurrentTermTrie &) = delete;

  /// Fused check/insert of the tuple key \p Key (one shared first-
  /// occurrence variable numbering across the terms). Safe to call from
  /// any number of threads; exactly one caller per distinct key observes
  /// Inserted == true. \p Store must not be mutated by other threads for
  /// the duration of the walk (the engine walks quiescent or thread-
  /// private stores).
  InsertResult insert(const TermStore &Store, std::span<const TermRef> Key,
                      uint32_t NewValue);
  InsertResult insert(const TermStore &Store, TermRef T, uint32_t NewValue) {
    TermRef K[1] = {T};
    return insert(Store, std::span<const TermRef>(K, 1), NewValue);
  }

  /// Lock-free lookup; \returns the stored value or NoValue. Runs
  /// concurrently with insert() on other threads.
  uint32_t find(const TermStore &Store, std::span<const TermRef> Key) const;
  uint32_t find(const TermStore &Store, TermRef T) const {
    TermRef K[1] = {T};
    return find(Store, std::span<const TermRef>(K, 1));
  }

  /// Number of keys stored (relaxed; exact once writers are quiescent).
  size_t valueCount() const {
    return NumValues.load(std::memory_order_relaxed);
  }

  /// Number of trie nodes excluding the root (relaxed snapshot).
  size_t nodeCount() const {
    return NumNodes.load(std::memory_order_relaxed);
  }

  /// Bytes held by node chunks (table-space accounting). Callers snapshot
  /// this between evaluations, not mid-insert.
  size_t memoryBytes() const;

private:
  /// Token kinds, identical to TermTrie's encoding so the two
  /// representations index the same key space.
  enum Kind : uint8_t { KVar, KAtom, KInt, KStruct, KRoot };

  struct Node {
    uint64_t Payload = 0; ///< Immutable after publication.
    std::atomic<Node *> Child{nullptr};  ///< Head of prepend-only chain.
    Node *Sibling = nullptr;             ///< Written before publication only.
    std::atomic<uint32_t> Value{NoValue};
    uint8_t K = KRoot;
  };

  static constexpr size_t ChunkSize = 256;

  /// Flattens \p Key into canonical tokens (thread-local scratch).
  static void encodeKey(const TermStore &Store, std::span<const TermRef> Key,
                        std::vector<uint64_t> &Payloads,
                        std::vector<uint8_t> &Kinds);

  /// Lock-free child scan; acquire loads throughout.
  static Node *findChild(const Node *Parent, uint8_t K, uint64_t P);

  /// Allocates a node from the chunked arena. Caller holds Mu.
  Node *allocNode(uint8_t K, uint64_t P);

  Node Root;
  mutable std::mutex Mu; ///< Serializes inserts and chunk allocation.
  std::vector<std::unique_ptr<Node[]>> Chunks; ///< Guarded by Mu.
  size_t NextInChunk = ChunkSize;              ///< Guarded by Mu.
  std::atomic<size_t> NumNodes{0};
  std::atomic<size_t> NumValues{0};
};

} // namespace lpa

#endif // LPA_TABLE_CONCURRENTTRIE_H

//===- BoundedRing.h - Keep-last ring buffer --------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one keep-last ring every bounded journal uses: the flight
/// recorder, the recording trace sink and the service's latency window,
/// recent-query records and gauge series. Once full, each push overwrites
/// the oldest element and counts it, so dropped() + size() == total().
/// Capacity 0 keeps everything.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_BOUNDEDRING_H
#define LPA_OBS_BOUNDEDRING_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lpa {

template <typename T> class BoundedRing {
public:
  explicit BoundedRing(size_t Capacity = 0) : Cap(Capacity) {}

  template <typename U> void push(U &&V) {
    ++Total;
    if (!Cap || Items.size() < Cap) {
      Items.push_back(std::forward<U>(V));
      return;
    }
    Items[Head] = std::forward<U>(V);
    Head = (Head + 1) % Cap;
  }

  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }
  /// Every element ever pushed since construction or clear().
  uint64_t total() const { return Total; }
  /// Elements evicted by the ring; 0 while it has never filled.
  uint64_t dropped() const { return Total - Items.size(); }

  /// Visits the kept elements oldest first, in place: no allocation, no
  /// mutation, so a signal handler may walk the ring this way.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t I = Head; I < Items.size(); ++I)
      F(Items[I]);
    for (size_t I = 0; I < Head; ++I)
      F(Items[I]);
  }

  /// The kept elements oldest first. Rotates the storage in place once
  /// the ring has wrapped.
  const std::vector<T> &linear() const {
    if (Head) {
      std::rotate(Items.begin(), Items.begin() + Head, Items.end());
      Head = 0;
    }
    return Items;
  }

  void reserve(size_t N) { Items.reserve(N); }

  void clear() {
    Items.clear();
    Head = 0;
    Total = 0;
  }

private:
  size_t Cap;
  /// Until the first wrap arrival order equals storage order; after it,
  /// Head marks the oldest kept element.
  mutable std::vector<T> Items;
  mutable size_t Head = 0;
  uint64_t Total = 0;
};

} // namespace lpa

#endif // LPA_OBS_BOUNDEDRING_H

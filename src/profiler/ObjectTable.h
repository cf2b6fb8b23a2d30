//===- profiler/ObjectTable.h - Live-object side table ----------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ObjectTable<T>: per-object state keyed by 64-bit object id, whose
/// time and memory follow the objects it holds, not the largest id it
/// has seen. It is the legacy reader's trailer side table
/// (profiler/LegacyStream.h): a v2-v7 stream carries uses, not
/// trailers, so the reader keeps one trailer per live object until the
/// object's Collect or Survivor. (From v8 the VM keeps the trailer on
/// the object itself.)
///
/// Layout: ids map to 64-slot pages (id >> 6) with one uint64_t live
/// mask each. A slot is constructed when its id is inserted; creating a
/// page touches nothing but its header. Pages hang off an open-addressed
/// page-number directory (support/OpenIndex.h) plus a one-page hint, so
/// dense ids -- the heap hands them out monotonically -- mostly skip the
/// hash probe, and a sampled stream carrying one id in thousands, or a
/// hostile one carrying id 2^62, costs one page per live object. A page
/// that drains behind the frontier (the highest page ever created), or
/// an empty frontier page that a later page replaces, goes back to a
/// free list and is reused by the next new page, so resident state is
/// bounded by the peak number of live pages plus one.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_OBJECTTABLE_H
#define JDRAG_PROFILER_OBJECTTABLE_H

#include "support/OpenIndex.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace jdrag::profiler {

template <typename T> class ObjectTable {
  static_assert(std::is_trivially_destructible_v<T>,
                "erase() and page reuse never run destructors");

public:
  /// Starts \p Id over: its slot is (re)constructed as T() whether or
  /// not it was live (an Alloc resets the object).
  T &insert(std::uint64_t Id) {
    Page &Pg = pageFor(Id >> PageBits);
    std::uint64_t Bit = bitOf(Id);
    if (!(Pg.Live & Bit)) {
      Pg.Live |= Bit;
      ++LiveTotal;
    }
    return *::new (Pg.raw(slotOf(Id))) T();
  }

  /// The slot of \p Id, constructed as T() first if it is not live.
  T &findOrInsert(std::uint64_t Id) {
    Page &Pg = pageFor(Id >> PageBits);
    std::uint64_t Bit = bitOf(Id);
    if (Pg.Live & Bit)
      return *Pg.slot(slotOf(Id));
    Pg.Live |= Bit;
    ++LiveTotal;
    return *::new (Pg.raw(slotOf(Id))) T();
  }

  /// The live slot of \p Id, or nullptr.
  T *find(std::uint64_t Id) {
    Page *Pg = lookup(Id >> PageBits);
    return Pg && (Pg->Live & bitOf(Id)) ? Pg->slot(slotOf(Id)) : nullptr;
  }

  void erase(std::uint64_t Id) {
    std::uint64_t No = Id >> PageBits;
    Page *Pg = lookup(No);
    if (!Pg || !(Pg->Live & bitOf(Id)))
      return;
    Pg->Live &= ~bitOf(Id);
    --LiveTotal;
    // Keep the frontier page even when briefly empty: allocation is
    // still filling it and releasing would just recreate it. It goes
    // once a later page takes over the frontier (newPage).
    if (Pg->Live == 0 && No < Frontier)
      release(No);
  }

  /// Live ids.
  std::size_t size() const { return LiveTotal; }

  /// Resident bytes: pages (live and free), directory and free list.
  std::size_t stateBytes() const {
    return Pages.size() * sizeof(Page) +
           Pages.capacity() * sizeof(std::unique_ptr<Page>) +
           Dir.stateBytes() + Free.capacity() * sizeof(std::uint32_t);
  }

  /// Calls F(Id, const T &) for every live id, in ascending id order.
  template <typename Fn> void forEachLive(Fn F) const {
    std::vector<const Page *> Live;
    for (const std::unique_ptr<Page> &Pg : Pages)
      if (Pg->Live)
        Live.push_back(Pg.get());
    std::sort(Live.begin(), Live.end(),
              [](const Page *A, const Page *B) { return A->No < B->No; });
    for (const Page *Pg : Live)
      for (std::uint64_t M = Pg->Live; M; M &= M - 1) {
        unsigned S = static_cast<unsigned>(std::countr_zero(M));
        F((Pg->No << PageBits) | S, *Pg->slot(S));
      }
  }

private:
  static constexpr unsigned PageBits = 6;
  static constexpr std::uint64_t NoPage = ~std::uint64_t(0); // > any id >> 6

  struct Page {
    std::uint64_t No = 0;   ///< page number: id >> PageBits
    std::uint64_t Live = 0; ///< bit S set = slot S holds a constructed T
    /// No initializer: `new Page` leaves the slots untouched.
    alignas(T) unsigned char Storage[sizeof(T) << PageBits];

    void *raw(unsigned S) { return Storage + S * sizeof(T); }
    T *slot(unsigned S) { return std::launder(reinterpret_cast<T *>(raw(S))); }
    const T *slot(unsigned S) const {
      return std::launder(
          reinterpret_cast<const T *>(Storage + S * sizeof(T)));
    }
  };

  static unsigned slotOf(std::uint64_t Id) {
    return static_cast<unsigned>(Id & ((1u << PageBits) - 1));
  }
  static std::uint64_t bitOf(std::uint64_t Id) {
    return std::uint64_t(1) << slotOf(Id);
  }

  Page *lookup(std::uint64_t No) {
    if (No == HintNo)
      return Hint;
    std::uint32_t I = Dir.find(No);
    if (I == OpenIndex<std::uint64_t>::NoVal)
      return nullptr;
    HintNo = No;
    Hint = Pages[I].get();
    return Hint;
  }

  Page &pageFor(std::uint64_t No) {
    if (Page *Pg = lookup(No))
      return *Pg;
    return newPage(No);
  }

  Page &newPage(std::uint64_t No) {
    if (No > Frontier) {
      std::uint32_t Old = Dir.find(Frontier);
      if (Old != OpenIndex<std::uint64_t>::NoVal && Pages[Old]->Live == 0)
        release(Frontier);
      Frontier = No;
    }
    std::uint32_t I;
    if (Free.empty()) {
      // Default-initialized, not value-initialized (make_unique would
      // zero the slots): storage stays untouched until an insert
      // constructs into it.
      I = static_cast<std::uint32_t>(Pages.size());
      Pages.push_back(std::unique_ptr<Page>(new Page));
    } else {
      I = Free.back();
      Free.pop_back();
    }
    Dir.lookupOrInsert(No, I);
    Pages[I]->No = No;
    Pages[I]->Live = 0;
    HintNo = No;
    Hint = Pages[I].get();
    return *Hint;
  }

  void release(std::uint64_t No) {
    Free.push_back(Dir.erase(No));
    if (HintNo == No)
      HintNo = NoPage;
  }

  std::vector<std::unique_ptr<Page>> Pages; ///< live and free pages
  std::vector<std::uint32_t> Free;          ///< indices of free pages
  OpenIndex<std::uint64_t> Dir;             ///< page number -> Pages index
  std::uint64_t Frontier = 0;
  std::uint64_t HintNo = NoPage;
  Page *Hint = nullptr;
  std::size_t LiveTotal = 0;
};

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_OBJECTTABLE_H

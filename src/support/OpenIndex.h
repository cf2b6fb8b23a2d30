//===- support/OpenIndex.h - Open-addressed integer index -------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Open-addressed hash index from an integer key to a dense uint32
/// value: linear probing, power-of-two capacity grown at 50% load,
/// multiplicative hashing -- the same trick the site-table trie uses
/// for child lookup. The streaming folds (analysis/RecordFold.h)
/// use it in place of a per-record `unordered_map::try_emplace`; the
/// live-object table (profiler/ObjectTable.h) uses it as its page
/// directory. Empty slots are tagged on the *value* (NoVal), so every
/// key bit pattern -- including InvalidSite (~0u), the never-used
/// last-use bucket -- is storable.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_SUPPORT_OPENINDEX_H
#define JDRAG_SUPPORT_OPENINDEX_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jdrag {

template <typename KeyT> class OpenIndex {
public:
  static constexpr std::uint32_t NoVal = 0xFFFFFFFFu;

  explicit OpenIndex(std::size_t ExpectedKeys = 0) {
    if (ExpectedKeys)
      rehash(slotCountFor(ExpectedKeys));
  }

  /// Returns the value stored under \p Key, inserting \p ValIfNew first
  /// if the key is not present.
  std::uint32_t lookupOrInsert(KeyT Key, std::uint32_t ValIfNew) {
    if (Slots.empty() || Used * 2 >= Slots.size())
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
    std::size_t I = bucket(Key);
    while (Slots[I].Val != NoVal) {
      if (Slots[I].Key == Key)
        return Slots[I].Val;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I].Key = Key;
    Slots[I].Val = ValIfNew;
    ++Used;
    return ValIfNew;
  }

  /// The value stored under \p Key, or NoVal.
  std::uint32_t find(KeyT Key) const {
    if (Slots.empty())
      return NoVal;
    std::size_t I = bucket(Key);
    while (Slots[I].Val != NoVal && Slots[I].Key != Key)
      I = (I + 1) & (Slots.size() - 1);
    return Slots[I].Val;
  }

  /// Removes \p Key and returns its value (NoVal if absent). Backward-
  /// shift deletion: later entries of the probe run move up into the
  /// hole, so lookups never need tombstones.
  std::uint32_t erase(KeyT Key) {
    if (Slots.empty())
      return NoVal;
    std::size_t Mask = Slots.size() - 1;
    std::size_t Hole = bucket(Key);
    while (Slots[Hole].Val != NoVal && Slots[Hole].Key != Key)
      Hole = (Hole + 1) & Mask;
    std::uint32_t Val = Slots[Hole].Val;
    if (Val == NoVal)
      return NoVal;
    for (std::size_t J = (Hole + 1) & Mask; Slots[J].Val != NoVal;
         J = (J + 1) & Mask) {
      // The entry at J may fill the hole only if the hole lies on its
      // probe path, i.e. no nearer to J than the entry's home bucket.
      std::size_t Home = bucket(Slots[J].Key);
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole] = Slot();
    --Used;
    return Val;
  }

  std::size_t size() const { return Used; }
  std::size_t stateBytes() const { return Slots.capacity() * sizeof(Slot); }

private:
  struct Slot {
    KeyT Key;
    std::uint32_t Val = NoVal;
  };

  static std::size_t slotCountFor(std::size_t Keys) {
    std::size_t N = 16;
    while (N < Keys * 2)
      N *= 2;
    return N;
  }

  std::size_t bucket(KeyT Key) const {
    // Fibonacci hashing: the high bits of Key * 2^64/phi spread runs of
    // consecutive ids; shift keeps exactly log2(capacity) of them.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Key) * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  void rehash(std::size_t NewSize) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewSize, Slot());
    Shift = 64;
    for (std::size_t N = NewSize; N > 1; N /= 2)
      --Shift;
    for (const Slot &S : Old) {
      if (S.Val == NoVal)
        continue;
      std::size_t I = bucket(S.Key);
      while (Slots[I].Val != NoVal)
        I = (I + 1) & (NewSize - 1);
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  std::size_t Used = 0;
  unsigned Shift = 64;
};

} // namespace jdrag

#endif // JDRAG_SUPPORT_OPENINDEX_H

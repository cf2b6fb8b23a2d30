//===- support/ExactSum.h -------------------------------------------------===//
//
// A fixed-point superaccumulator for nonnegative doubles whose addition
// is exactly associative and commutative. The streaming fold engine
// (analysis/RecordFold.h) sums drag/space-time products per site in any
// order -- sequentially, or shard-local then merged -- and must produce
// bit-identical totals either way. Floating-point `+` is not
// associative, so folds accumulate into ExactSum and convert once, at
// finalization, with correct (round-to-nearest-even) rounding.
//
// Representation: 6 x 64-bit limbs of an unsigned fixed-point integer
// N, little-endian, where limb I carries weight 2^(64*I - 128), plus an
// integer lane L. The value is N * 2^-128 + L; the representable range
// is [0, 2^256) with 128 fractional bits. Adding a double truncates any
// bits below 2^-128 (deterministic, order-independent: truncation
// happens per addend, before accumulation). Adding two ExactSums is
// plain multi-limb integer addition; a carry out of the top limb wraps,
// which keeps addition associative even in overflow (callers stay far
// below 2^256: the largest fold addend, a sampled variance term, is
// < 2^212 for any 32-bit byte count and 64-bit byte-clock).
//
// The lane is the fold's fast path. Most fold addends are products of
// two integers (bytes x time, time x time); addProduct() takes them as
// integers and, when the product is below 2^53 -- where the double
// product is exact -- adds it to the 128-bit lane with one integer add
// instead of decomposing a double into limbs. Only addProduct() feeds
// the lane, and only with addends below 2^53; merging moves the other
// side's lane into this side's limbs. Overflowing the lane therefore
// takes about 2^75 adds, so the hot path carries no overflow check.
// Every observer (toDouble, isZero, ==, merging) sees lane + limbs as
// one value, so where a value was added never shows.
//
//===----------------------------------------------------------------------===//

#ifndef JDRAG_SUPPORT_EXACTSUM_H
#define JDRAG_SUPPORT_EXACTSUM_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>

namespace jdrag {

class ExactSum {
public:
  /// Every integer below this is an exact double; addProduct() puts
  /// products below it on the lane.
  static constexpr std::uint64_t LaneLimit = std::uint64_t(1) << 53;

  /// Adds a nonnegative finite double. Bits below 2^-128 are truncated
  /// (per addend, so the result is independent of addition order).
  void add(double V) {
    assert(V >= 0.0 && std::isfinite(V) && "ExactSum addends are >= 0");
    if (V == 0.0)
      return;
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    int Exp = static_cast<int>((Bits >> 52) & 0x7FF);
    std::uint64_t Man = Bits & ((std::uint64_t(1) << 52) - 1);
    if (Exp == 0)
      Exp = 1; // subnormal: same scale, no implicit bit
    else
      Man |= std::uint64_t(1) << 52;
    // V = Man * 2^(Exp - 1075); Shift is the bit position of Man's LSB
    // within the fixed-point integer N (weight 2^(Shift - 128)).
    int Shift = Exp - 1075 + FracBits;
    if (Shift < 0) {
      if (Shift <= -53)
        return; // entirely below the representable LSB
      Man >>= -Shift;
      if (Man == 0)
        return;
      Shift = 0;
    }
    int Limb = Shift >> 6, Off = Shift & 63;
    unsigned __int128 Wide = static_cast<unsigned __int128>(Man) << Off;
    addAt(Limb, static_cast<std::uint64_t>(Wide));
    addAt(Limb + 1, static_cast<std::uint64_t>(Wide >> 64));
  }

  /// Adds the exact value of add(double(A) * double(B)). A product
  /// below 2^53 is exact in double and goes to the integer lane;
  /// anything larger takes the double path, rounding included.
  void addProduct(std::uint64_t A, std::uint64_t B) {
    unsigned __int128 P = static_cast<unsigned __int128>(A) * B;
    if (P < LaneLimit) {
      Lane += P;
      return;
    }
    add(static_cast<double>(A) * static_cast<double>(B));
  }

  /// Adds another accumulator: multi-limb integer addition, exactly
  /// associative and commutative (carries out of the top limb wrap).
  /// O's lane lands in the limbs, so this lane keeps taking only
  /// addProduct()'s small addends.
  void add(const ExactSum &O) {
    addLimbs(O);
    addInteger(O.Lane);
  }

  /// Converts to double with a single round-to-nearest-even step -- the
  /// correctly rounded value of the exact fixed-point sum.
  double toDouble() const { return flushed().limbsToDouble(); }

  bool isZero() const {
    ExactSum N = flushed();
    for (std::uint64_t L : N.Limbs)
      if (L)
        return false;
    return true;
  }

  /// Compares values: a sum held on the lane equals the same sum held
  /// in the limbs.
  bool operator==(const ExactSum &O) const {
    ExactSum A = flushed(), B = O.flushed();
    return std::equal(std::begin(A.Limbs), std::end(A.Limbs),
                      std::begin(B.Limbs));
  }

private:
  static constexpr int NumLimbs = 6;
  static constexpr int FracBits = 128;
  /// Integer weight 2^0 sits at bit FracBits of N, the start of limb 2.
  static constexpr int UnitLimb = FracBits / 64;

  void addLimbs(const ExactSum &O) {
    unsigned Carry = 0;
    for (int I = 0; I != NumLimbs; ++I) {
      std::uint64_t A = Limbs[I] + O.Limbs[I];
      unsigned C = A < Limbs[I];
      std::uint64_t B = A + Carry;
      Carry = C + (B < A);
      Limbs[I] = B;
    }
  }

  /// Adds an integer at weight 2^0.
  void addInteger(unsigned __int128 V) {
    addAt(UnitLimb, static_cast<std::uint64_t>(V));
    addAt(UnitLimb + 1, static_cast<std::uint64_t>(V >> 64));
  }

  /// A copy with the lane moved into the limbs.
  ExactSum flushed() const {
    ExactSum N = *this;
    N.Lane = 0;
    N.addInteger(Lane);
    return N;
  }

  double limbsToDouble() const {
    int Top = NumLimbs - 1;
    while (Top >= 0 && Limbs[Top] == 0)
      --Top;
    if (Top < 0)
      return 0.0;
    int HB = 63 - std::countl_zero(Limbs[Top]); // MSB index within the limb
    // Gather the top 128 bits below (and including) the MSB, plus a
    // sticky bit from everything further down.
    unsigned __int128 Frag = static_cast<unsigned __int128>(Limbs[Top]) << 64;
    if (Top > 0)
      Frag |= Limbs[Top - 1];
    bool Sticky = false;
    for (int I = Top - 2; I >= 0; --I)
      if (Limbs[I]) {
        Sticky = true;
        break;
      }
    // Keep a 54-bit window (53 mantissa bits + 1 round bit) at the top.
    int Drop = HB + 11; // Frag holds HB+65 significant bits; >= 11 always
    if (Frag & ((static_cast<unsigned __int128>(1) << Drop) - 1))
      Sticky = true;
    std::uint64_t Window = static_cast<std::uint64_t>(Frag >> Drop);
    std::uint64_t Mant = Window >> 1;
    if ((Window & 1) && (Sticky || (Mant & 1)))
      ++Mant; // may carry to 2^53; ldexp absorbs it
    return std::ldexp(static_cast<double>(Mant),
                      Top * 64 + HB - 52 - FracBits);
  }

  void addAt(int Limb, std::uint64_t V) {
    while (V && Limb < NumLimbs) {
      std::uint64_t S = Limbs[Limb] + V;
      V = S < V; // carry
      Limbs[Limb] = S;
      ++Limb;
    }
  }

  std::uint64_t Limbs[NumLimbs] = {};
  unsigned __int128 Lane = 0;
};

} // namespace jdrag

#endif // JDRAG_SUPPORT_EXACTSUM_H

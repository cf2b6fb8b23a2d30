//===- tests/test_lz.cpp - LZ block codec round-trip + fuzz ---------------===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
//
// The codec guards the v6 event-stream pipeline, so its contract is
// tested adversarially: every round trip must be bit-exact, an
// incompressible input must come back as the empty "store raw" signal,
// and the bounded decoder must fail cleanly -- never crash, never
// over-read, never over-write -- on truncated, hostile, or lying input.
//
//===----------------------------------------------------------------------===//

#include "support/Lz.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace jdrag::support;

namespace {

/// Deterministic xorshift64* PRNG so failures reproduce exactly.
struct Rng {
  std::uint64_t S;
  explicit Rng(std::uint64_t Seed) : S(Seed ? Seed : 1) {}
  std::uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1DULL;
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }
};

/// Round-trips Data through the codec. An empty compress() result is
/// the legal "incompressible, store raw" outcome; a non-empty one must
/// be strictly smaller and decode bit-identically.
void roundTrip(const std::vector<std::uint8_t> &Data) {
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  if (Packed.empty())
    return; // stored raw: nothing to decode
  ASSERT_LT(Packed.size(), Data.size())
      << "a non-empty compressed block must be strictly smaller";
  std::vector<std::uint8_t> Out;
  ASSERT_TRUE(lzDecompress(Packed.data(), Packed.size(), Out, Data.size()));
  ASSERT_EQ(Out.size(), Data.size());
  EXPECT_EQ(0, std::memcmp(Out.data(), Data.data(), Data.size()));
}

TEST(LzCodec, EmptyInputIsIncompressible) {
  EXPECT_TRUE(lzCompress(nullptr, 0).empty());
}

TEST(LzCodec, OneByteIsIncompressible) {
  std::uint8_t B = 0x42;
  EXPECT_TRUE(lzCompress(&B, 1).empty());
}

TEST(LzCodec, AllZeroCompressesHard) {
  std::vector<std::uint8_t> Data(64 * 1024, 0);
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Packed.empty()) << "64 KiB of zeros must compress";
  EXPECT_LT(Packed.size(), Data.size() / 100);
  std::vector<std::uint8_t> Out;
  ASSERT_TRUE(lzDecompress(Packed.data(), Packed.size(), Out, Data.size()));
  EXPECT_EQ(Out, Data);
}

TEST(LzCodec, RandomBytesStoredRaw) {
  Rng R(0xC0FFEE);
  std::vector<std::uint8_t> Data(32 * 1024);
  for (auto &B : Data)
    B = R.byte();
  EXPECT_TRUE(lzCompress(Data.data(), Data.size()).empty())
      << "random bytes must take the stored-raw passthrough";
}

TEST(LzCodec, PathologicalRlePatterns) {
  // Short periods exercise overlapping matches (offset < match length).
  for (std::size_t Period : {1u, 2u, 3u, 4u, 5u, 7u, 13u}) {
    std::vector<std::uint8_t> Data(40000);
    for (std::size_t I = 0; I != Data.size(); ++I)
      Data[I] = static_cast<std::uint8_t>((I % Period) * 37 + 1);
    roundTrip(Data);
  }
}

TEST(LzCodec, RepeatsBeyondTheWindow) {
  // The same 1 KiB block repeated at a 96 KiB stride: every repeat is
  // farther back than the 64 KiB offset range, so the matcher must not
  // emit out-of-window offsets -- but intra-block repeats still help.
  Rng R(0xBADF00D);
  std::vector<std::uint8_t> Block(1024);
  for (auto &B : Block)
    B = R.byte() & 0x0F; // compressible alphabet
  std::vector<std::uint8_t> Data;
  while (Data.size() < 3 * 96 * 1024) {
    Data.insert(Data.end(), Block.begin(), Block.end());
    for (std::size_t I = 0; I != 95 * 1024; ++I)
      Data.push_back(static_cast<std::uint8_t>(I & 0x7));
  }
  roundTrip(Data);
}

TEST(LzCodec, RandomizedRoundTripSweep) {
  // Mixed-entropy buffers across sizes: runs, repeated phrases, noise.
  Rng R(0x5EED);
  for (std::size_t Size :
       {2u, 3u, 4u, 5u, 15u, 16u, 17u, 255u, 256u, 4096u, 65535u, 65536u,
        65537u, 200000u}) {
    std::vector<std::uint8_t> Data;
    Data.reserve(Size);
    while (Data.size() < Size) {
      switch (R.next() % 3) {
      case 0: { // literal noise
        std::size_t N = 1 + R.next() % 64;
        for (std::size_t I = 0; I != N && Data.size() < Size; ++I)
          Data.push_back(R.byte());
        break;
      }
      case 1: { // run
        std::uint8_t B = R.byte();
        std::size_t N = 1 + R.next() % 512;
        for (std::size_t I = 0; I != N && Data.size() < Size; ++I)
          Data.push_back(B);
        break;
      }
      default: { // phrase copy from earlier in the buffer
        if (Data.empty()) {
          Data.push_back(R.byte());
          break;
        }
        std::size_t Off = 1 + R.next() % Data.size();
        std::size_t N = 1 + R.next() % 256;
        for (std::size_t I = 0; I != N && Data.size() < Size; ++I)
          Data.push_back(Data[Data.size() - Off]);
        break;
      }
      }
    }
    roundTrip(Data);
  }
}

/// Phrase copies over a small alphabet, each diverging from its source
/// after a random length: the matcher's extension loop stops at every
/// byte offset of a word, and matches run from the 4-byte minimum to
/// several hundred bytes.
std::vector<std::uint8_t> divergingPhrases(std::size_t Size,
                                           std::uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::uint8_t> Data;
  Data.reserve(Size);
  while (Data.size() < Size) {
    if (Data.size() < 64 || R.next() % 4 == 0) {
      std::size_t N = 1 + R.next() % 24;
      for (std::size_t I = 0; I != N; ++I)
        Data.push_back(R.byte() & 0x1F);
      continue;
    }
    std::size_t Off = 1 + R.next() % std::min<std::size_t>(Data.size(), 70000);
    std::size_t Span = R.next() % 2 ? 16 : 400;
    std::size_t N = 4 + R.next() % Span;
    for (std::size_t I = 0; I != N; ++I)
      Data.push_back(Data[Data.size() - Off]);
    Data.push_back(static_cast<std::uint8_t>(Data.back() ^ 0x20));
  }
  Data.resize(Size);
  return Data;
}

/// FNV-1a over the compressed block.
std::uint64_t fnv1a(const std::vector<std::uint8_t> &Bytes) {
  std::uint64_t H = 0xcbf29ce484222325ULL;
  for (std::uint8_t B : Bytes)
    H = (H ^ B) * 0x100000001b3ULL;
  return H;
}

TEST(LzCodec, CompressedBytesArePinned) {
  // The compressor's output is part of the .jdev format's reproducibility:
  // the same chunk must compress to the same bytes on every build, so a
  // faster matcher may not pick different matches.
  struct Case {
    std::size_t Size;
    std::uint64_t Seed;
    std::size_t PackedSize;
    std::uint64_t Digest;
  };
  for (const Case &C : {Case{1000, 1, 148, 0x59deeed6db795ed8ULL},
                        Case{65536, 2, 9288, 0x0d7641d8e5c9b651ULL},
                        Case{300000, 3, 43669, 0x34e3cac20bfcc4f3ULL}}) {
    std::vector<std::uint8_t> Data = divergingPhrases(C.Size, C.Seed);
    // The matcher's tables are per thread and outlive a block, and a
    // stale entry can still yield a valid match; a fresh thread makes
    // the output independent of what this thread compressed before.
    std::vector<std::uint8_t> Packed;
    std::thread([&] { Packed = lzCompress(Data.data(), Data.size()); }).join();
    EXPECT_EQ(Packed.size(), C.PackedSize) << "size " << C.Size;
    EXPECT_EQ(fnv1a(Packed), C.Digest) << "size " << C.Size;
    roundTrip(Data);
  }
}

//===----------------------------------------------------------------------===//
// Adversarial decoder inputs
//===----------------------------------------------------------------------===//

/// Every hostile input must fail cleanly: false returned, Out cleared.
void expectReject(const std::vector<std::uint8_t> &Packed,
                  std::size_t MaxRawLen) {
  std::vector<std::uint8_t> Out{0xAA}; // pre-dirtied: must come back empty
  EXPECT_FALSE(lzDecompress(Packed.data(), Packed.size(), Out, MaxRawLen));
  EXPECT_TRUE(Out.empty());
}

TEST(LzCodec, DecoderRejectsEmptyInput) { expectReject({}, 1024); }

TEST(LzCodec, DecoderRejectsDeclaredLengthOverCap) {
  // RawLen = 2^20 against a 1024-byte cap: rejected before any token.
  expectReject({0x80, 0x80, 0x40}, 1024);
}

TEST(LzCodec, DecoderRejectsUnterminatedRawLenVarint) {
  // Eleven continuation bytes: a u64 uvarint cannot be that long.
  expectReject(std::vector<std::uint8_t>(11, 0x80), 1 << 20);
}

TEST(LzCodec, DecoderRejectsTruncatedTokens) {
  // Truncate a valid block at every possible byte boundary; each prefix
  // must be rejected (the full block itself must still decode).
  std::vector<std::uint8_t> Data(2048);
  for (std::size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<std::uint8_t>(I / 7);
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Packed.empty());
  std::vector<std::uint8_t> Out;
  ASSERT_TRUE(lzDecompress(Packed.data(), Packed.size(), Out, Data.size()));
  for (std::size_t Cut = 0; Cut != Packed.size(); ++Cut) {
    std::vector<std::uint8_t> Trunc(Packed.begin(), Packed.begin() + Cut);
    expectReject(Trunc, Data.size());
  }
}

TEST(LzCodec, DecoderRejectsOutOfRangeMatchOffset) {
  // RawLen 8, token: 4 literals + match len 4 at offset 9 -- one byte
  // beyond the output produced so far.
  expectReject({8, 0x40, 'a', 'b', 'c', 'd', 9, 0}, 64);
}

TEST(LzCodec, DecoderRejectsZeroMatchOffset) {
  expectReject({8, 0x40, 'a', 'b', 'c', 'd', 0, 0}, 64);
}

TEST(LzCodec, DecoderRejectsRawLenLies) {
  // A valid token stream whose literals-only tail ends before the
  // declared RawLen (lie high), and one that overruns it (lie low).
  std::vector<std::uint8_t> Data(64, 0x11);
  std::vector<std::uint8_t> Packed = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Packed.empty());
  ASSERT_EQ(Packed[0], 64u) << "64 encodes as a single uvarint byte";
  std::vector<std::uint8_t> LieHigh = Packed;
  LieHigh[0] = 65; // one more byte than the tokens produce
  expectReject(LieHigh, 1024);
  std::vector<std::uint8_t> LieLow = Packed;
  LieLow[0] = 63; // tokens now overrun the declared length
  expectReject(LieLow, 1024);
}

TEST(LzCodec, DecoderAcceptsZeroLengthBlock) {
  // RawLen 0 and one empty literals-only token: an empty output whose
  // buffer has no storage at all. A reader honouring the compressed
  // flag of a frame it did not compress can meet this (a bit flip that
  // sets the flag); the CRC then decides.
  std::vector<std::uint8_t> Out{0xAA};
  std::vector<std::uint8_t> Packed{0, 0};
  EXPECT_TRUE(lzDecompress(Packed.data(), Packed.size(), Out, 1024));
  EXPECT_TRUE(Out.empty());
  expectReject({0, 0x10, 'a'}, 1024); // one literal overruns RawLen 0
}

TEST(LzCodec, DecoderRejectsHostileExtensionRuns) {
  // Token demanding a literal run extended by endless 0xFF bytes: the
  // run length is capped against RawLen, so this must reject without
  // scanning forever or allocating the moon.
  std::vector<std::uint8_t> Packed{16, 0xF0};
  Packed.insert(Packed.end(), 4096, 0xFF);
  expectReject(Packed, 1 << 20);
}

TEST(LzCodec, DecoderFuzzNeverCrashes) {
  // Random garbage and mutated valid blocks: any outcome is fine except
  // a crash, an over-read (ASan would flag it), or a success whose
  // output violates the declared bounds.
  Rng R(0xD1CE);
  std::vector<std::uint8_t> Data(4096);
  for (std::size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<std::uint8_t>(I / 5);
  std::vector<std::uint8_t> Valid = lzCompress(Data.data(), Data.size());
  ASSERT_FALSE(Valid.empty());
  for (int Iter = 0; Iter != 2000; ++Iter) {
    std::vector<std::uint8_t> Buf;
    if (Iter % 2) {
      Buf.resize(1 + R.next() % 512);
      for (auto &B : Buf)
        B = R.byte();
    } else {
      Buf = Valid;
      std::size_t Flips = 1 + R.next() % 8;
      for (std::size_t I = 0; I != Flips; ++I)
        Buf[R.next() % Buf.size()] ^= static_cast<std::uint8_t>(
            1u << (R.next() % 8));
    }
    std::vector<std::uint8_t> Out;
    if (lzDecompress(Buf.data(), Buf.size(), Out, Data.size())) {
      EXPECT_LE(Out.size(), Data.size());
    }
  }
}

} // namespace

//===- tests/test_support.cpp - support library tests ---------------------===//

#include "support/Csv.h"
#include "support/Format.h"
#include "support/OpenIndex.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/StringInterner.h"
#include "support/Table.h"
#include "support/Units.h"

#include <gtest/gtest.h>

using namespace jdrag;

TEST(Format, FormatString) {
  EXPECT_EQ(formatString("%d + %d = %d", 2, 3, 5), "2 + 3 = 5");
  EXPECT_EQ(formatString("%s", "x"), "x");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(Format, Fixed) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(0.0, 1), "0.0");
  EXPECT_EQ(formatFixed(-1.5, 0), "-2");
}

TEST(Format, Bytes) {
  EXPECT_EQ(formatBytes(42), "42 B");
  EXPECT_EQ(formatBytes(200 * 1024), "204800 B (200.0 KB)");
  EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3145728 B (3.00 MB)");
}

TEST(Format, Percent) {
  EXPECT_EQ(formatPercent(0.218), "21.80%");
  EXPECT_EQ(formatPercent(1.6882), "168.82%");
}

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("x", 3), "  x");
  EXPECT_EQ(padRight("x", 3), "x  ");
  EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(toMB(2 * MB), 2.0);
  EXPECT_DOUBLE_EQ(toMB2(static_cast<double>(MB) * MB), 1.0);
  EXPECT_EQ(KB, 1024u);
}

TEST(Table, RenderAligned) {
  TextTable T({"Name", "Value"});
  T.setAlign(1, TextTable::Align::Right);
  T.addRow({"alpha", "1"});
  T.addRow({"b", "100"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  EXPECT_NE(Out.find("100"), std::string::npos);
  // Right-aligned numeric column: "1" padded.
  EXPECT_NE(Out.find("    1"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(Table, RowWidthMismatchDies) {
  TextTable T({"a", "b"});
  EXPECT_DEATH(T.addRow({"only-one"}), "row width");
}

TEST(Csv, EscapingAndRender) {
  CsvWriter W({"a", "b"});
  W.addRow({"plain", "has,comma"});
  W.addRow({"has\"quote", "line\nbreak"});
  std::string Out = W.render();
  EXPECT_NE(Out.find("a,b\n"), std::string::npos);
  EXPECT_NE(Out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(Out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Csv, FileRoundTrip) {
  CsvWriter W({"x"});
  W.addRow({"1"});
  std::string Path = testing::TempDir() + "/jdrag_csv_test.csv";
  ASSERT_TRUE(W.writeFile(Path));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64] = {};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  EXPECT_EQ(std::string(Buf, N), "x\n1\n");
}

TEST(Statistics, WelfordMoments) {
  RunningStat S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.variance(), 4.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.coefficientOfVariation(), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(S.sum(), 40.0);
}

TEST(Statistics, EmptyAndSingle) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.variance(), 0.0);
  EXPECT_EQ(S.coefficientOfVariation(), 0.0);
  S.add(3.0);
  EXPECT_EQ(S.variance(), 0.0);
  EXPECT_EQ(S.min(), 3.0);
  EXPECT_EQ(S.max(), 3.0);
}

TEST(Random, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, BoundsRespected) {
  SplitMix64 R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(StringInterner, DenseIdsAndLookup) {
  StringInterner SI;
  auto A = SI.intern("alpha");
  auto B = SI.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.intern("alpha"), A);
  EXPECT_EQ(SI.str(A), "alpha");
  EXPECT_EQ(SI.lookup("beta"), B);
  EXPECT_EQ(SI.lookup("gamma"), StringInterner::InvalidId);
  EXPECT_EQ(SI.size(), 2u);
}

TEST(OpenIndex, FindAndEraseKeepProbeRunsIntact) {
  // Consecutive keys collide into shared probe runs; erasing every third
  // key must leave every survivor reachable (backward-shift deletion).
  OpenIndex<std::uint64_t> Idx;
  const std::uint32_t N = 5000;
  for (std::uint32_t I = 0; I != N; ++I)
    Idx.lookupOrInsert(I, I);
  EXPECT_EQ(Idx.find(N), OpenIndex<std::uint64_t>::NoVal);
  for (std::uint32_t I = 0; I < N; I += 3)
    EXPECT_EQ(Idx.erase(I), I);
  EXPECT_EQ(Idx.erase(0), OpenIndex<std::uint64_t>::NoVal);
  for (std::uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(Idx.find(I), I % 3 ? I : OpenIndex<std::uint64_t>::NoVal) << I;
  EXPECT_EQ(Idx.size(), N - (N + 2) / 3);
  // Erased keys can come back with new values.
  EXPECT_EQ(Idx.lookupOrInsert(3, 77), 77u);
  EXPECT_EQ(Idx.find(3), 77u);
}

// Tests for NPN classification of 3-input functions.

#include "logic/npn.hpp"

#include <gtest/gtest.h>

#include "logic/s3.hpp"
#include "logic/truth_table.hpp"

namespace vpga::logic {
namespace {

TEST(Npn, FourteenClasses) {
  // The classic result: 256 three-input functions fall into 14 NPN classes.
  EXPECT_EQ(npn_classes().size(), 14u);
}

TEST(Npn, ClassSizesSumTo256) {
  int total = 0;
  for (const auto& c : npn_classes()) total += c.size;
  EXPECT_EQ(total, 256);
}

TEST(Npn, CanonicalIsInvariantOnOrbit) {
  for (int f = 0; f < 256; ++f) {
    const auto canon = npn_canonical(static_cast<std::uint8_t>(f));
    for (auto member : npn_class_of(static_cast<std::uint8_t>(f)))
      EXPECT_EQ(npn_canonical(member), canon) << f;
  }
}

TEST(Npn, CanonicalIsAMemberAndMinimal) {
  for (int f = 0; f < 256; ++f) {
    const auto orbit = npn_class_of(static_cast<std::uint8_t>(f));
    const auto canon = npn_canonical(static_cast<std::uint8_t>(f));
    EXPECT_EQ(canon, orbit.front());
    for (auto member : orbit) EXPECT_LE(canon, member);
  }
}

TEST(Npn, KnownClassMembers) {
  // xor3 and xnor3 share a class; mux and maj are distinct classes.
  EXPECT_EQ(npn_canonical(tt3::xor3().bits()), npn_canonical(tt3::xnor3().bits()));
  EXPECT_NE(npn_canonical(tt3::mux().bits()), npn_canonical(tt3::maj3().bits()));
  EXPECT_NE(npn_canonical(tt3::maj3().bits()), npn_canonical(tt3::xor3().bits()));
  // and3, nand3, nor3, or3 are all one class under NPN.
  const auto and3 = npn_canonical(0x80);
  EXPECT_EQ(npn_canonical(0x7F), and3);
  EXPECT_EQ(npn_canonical(0x01), and3);
  EXPECT_EQ(npn_canonical(0xFE), and3);
}

TEST(Npn, ConstantsAndLiteralsAreTinyClasses) {
  // Constants: {0x00, 0xFF} — one class of size 2.
  EXPECT_EQ(npn_canonical(0x00), npn_canonical(0xFF));
  EXPECT_EQ(static_cast<int>(npn_class_of(0x00).size()), 2);
  // Literals: 6 members (3 vars x 2 polarities).
  EXPECT_EQ(static_cast<int>(npn_class_of(0xAA).size()), 6);
}

TEST(Npn, CoverageOfFullSetIsAllOnes) {
  const auto cov = npn_coverage(lut3_set3());
  for (double c : cov) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(Npn, CoverageRespectsNpnClosedSets) {
  // nd3wi and mux2 coverage sets are NPN-closed (programmable polarity +
  // routable pins), so every class is covered fully or not at all.
  for (const auto* set : {&nd3wi_set3(), &mux2_set3()}) {
    const auto cov = npn_coverage(*set);
    for (double c : cov) EXPECT_TRUE(c == 0.0 || c == 1.0) << c;
  }
}

TEST(Npn, S3FeasibleSetIsNotNpnClosed) {
  // The S3 gate has a designated select pin, so its feasible set must have a
  // partially covered class (permuting inputs can break feasibility).
  const auto a = analyze_s3();
  const auto cov = npn_coverage(a.feasible);
  bool partial = false;
  for (double c : cov) partial = partial || (c > 0.0 && c < 1.0);
  EXPECT_TRUE(partial);
}

TEST(Npn, NamesPresent) {
  for (const auto& c : npn_classes()) EXPECT_FALSE(c.name.empty());
}

TEST(Npn, CanonicalTransformCarriesOntoRepresentative) {
  // The exposed transform is the witness of class membership: applying it to
  // tt must land exactly on the canonical representative, for all 256.
  for (int f = 0; f < 256; ++f) {
    const auto tt = static_cast<std::uint8_t>(f);
    const auto t = npn_canonical_transform(tt);
    EXPECT_EQ(apply_npn3(tt, t), npn_canonical(tt)) << f;
  }
}

TEST(Npn, Table3MatchesScalarLookup) {
  const auto& table = npn_canonical_table3();
  for (int f = 0; f < 256; ++f)
    EXPECT_EQ(table[static_cast<std::size_t>(f)], npn_canonical(static_cast<std::uint8_t>(f)));
}

}  // namespace
}  // namespace vpga::logic

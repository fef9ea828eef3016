#pragma once
// Test helper shared by the generator, I/O and simulation tests: scalar
// stimulus on the 64-lane simulator. A test drives every input bit on all 64
// lanes, and a read fails the test unless the lanes agree, so each eval
// checks one vector 64 times over.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "netlist/bitsim.hpp"

namespace vpga {

/// The pattern word with all 64 lanes set to `v`.
constexpr std::uint64_t lanes(bool v) { return v ? ~std::uint64_t{0} : 0; }

/// Primary output `o` as one bit; fails the test unless all 64 lanes agree.
inline bool output_bit(const netlist::BitSimulator& sim, std::size_t o) {
  const std::uint64_t w = sim.output(o);
  EXPECT_TRUE(w == lanes(false) || w == lanes(true)) << "lanes disagree on output " << o;
  return w != 0;
}

}  // namespace vpga

#pragma once
// Test helper shared by test_cec and test_obs: a witness-free copy of a
// netlist. synth::tech_map stamps every cut node with a witness, so the
// exact-equivalence checker proves its output by tier 1's witness rule
// (verify/cec.hpp); tests that pin the BDD/SAT ladder on mapped designs
// strip the witnesses first so the ladder still runs on real cones.

#include "netlist/netlist.hpp"

namespace vpga {

inline netlist::Netlist strip_witnesses(netlist::Netlist nl) {
  for (const netlist::NodeId id : nl.all_nodes()) nl.node(id).witness = netlist::Node::kNoWitness;
  return nl;
}

}  // namespace vpga

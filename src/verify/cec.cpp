#include "verify/cec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"
#include "common/assert.hpp"
#include "common/fnmap.hpp"
#include "common/rng.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/cone.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "sat/cnf.hpp"
#include "verify/regcorr.hpp"

namespace vpga::verify {
namespace {

using netlist::BitSimulator;
using netlist::ConeSupport;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeType;
using netlist::Word256;

/// 64-pattern word with bit t = (t >> i) & 1 — the i-th exhaustive lane.
constexpr std::uint64_t lane_word(int i) {
  std::uint64_t w = 0;
  for (int t = 0; t < 64; ++t) {
    if (((t >> i) & 1) != 0) w |= std::uint64_t{1} << t;
  }
  return w;
}

/// The six lane words: one 64-pattern word enumerates every assignment of
/// up to six variables.
constexpr std::array<std::uint64_t, 6> kLanes = {lane_word(0), lane_word(1), lane_word(2),
                                                 lane_word(3), lane_word(4), lane_word(5)};

/// Collapses a cone extract (pure combinational, <= 6 inputs, one output)
/// into a single truth table over its input order.
logic::TruthTable cone_table(const Netlist& cone, int num_vars,
                             std::vector<logic::TruthTable>& tts,
                             std::vector<logic::TruthTable>& args) {
  tts.assign(cone.num_nodes(), logic::TruthTable());
  args.reserve(6);  // netlist gate arity ceiling
  for (std::size_t j = 0; j < cone.inputs().size(); ++j) {
    tts[cone.inputs()[j].index()] = logic::TruthTable::var(num_vars, static_cast<int>(j));
  }
  for (const NodeId id : cone.all_nodes()) {
    const Node& n = cone.node(id);
    if (n.type == NodeType::kConst) {
      tts[id.index()] = logic::TruthTable::constant(num_vars, n.func.eval(0));
    }
  }
  for (const NodeId id : cone.topo_order()) {
    const Node& n = cone.node(id);
    if (n.type != NodeType::kComb) continue;
    args.clear();
    for (const NodeId fi : cone.fanins(id)) args.push_back(tts[fi.index()]);
    tts[id.index()] = logic::compose(n.func, args);
  }
  return tts[cone.fanin(cone.outputs()[0], 0).index()];
}

/// Checks witness claims against one AIG: a claim says that a gate `f` over
/// fanins computing the literals `leaves` computes the literal `claim`. Only
/// the AIG cone between the claim and the leaves' nodes is evaluated, on
/// 64-lane words in which leaf node j carries lane word j (gate arity bounds
/// the leaves at 6), so the identity is checked for every joint value of
/// the leaves. Because it holds with the leaves free, it holds for whatever
/// functions the leaves compute: chained along the netlist, checked claims
/// are exact equivalences, whoever stamped them.
class ClaimChecker {
 public:
  /// A cone walk that passes this many AND nodes rejects the claim. A
  /// 6-input Shannon expansion builds at most 93.
  static constexpr std::size_t kMaxConeAnds = 256;

  explicit ClaimChecker(const aig::Aig& g)
      : g_(g), val_(g.num_nodes(), 0), mark_(g.num_nodes(), 0) {}

  /// True iff `claim` names an AIG node, its cone closes on the leaves'
  /// nodes within kMaxConeAnds AND nodes, and it equals f(leaves).
  bool holds(const logic::TruthTable& f, std::span<const aig::Lit> leaves, aig::Lit claim) {
    const std::uint32_t root = aig::node_of(claim);
    if (root >= g_.num_nodes() || leaves.size() > kLanes.size()) return false;
    ++epoch_;
    std::uint64_t fanin[kLanes.size()] = {};
    std::size_t next_lane = 0;
    for (std::size_t k = 0; k < leaves.size(); ++k) {
      const std::uint32_t n = aig::node_of(leaves[k]);
      if (n != 0 && mark_[n] != epoch_) {
        mark_[n] = epoch_;
        val_[n] = kLanes[next_lane++];
      }
      fanin[k] = word(leaves[k]);
    }
    // Collect the cone: every marked node is a leaf or already collected,
    // and node 0 (the constant) always reads 0.
    cone_.clear();
    stack_.clear();
    if (root != 0 && mark_[root] != epoch_) {
      mark_[root] = epoch_;
      stack_.push_back(root);
    }
    while (!stack_.empty()) {
      const std::uint32_t n = stack_.back();
      stack_.pop_back();
      const aig::Aig::Node& nd = g_.node(n);
      if (!nd.is_and || cone_.size() == kMaxConeAnds) return false;
      cone_.push_back(n);
      for (const aig::Lit c : {nd.fanin0, nd.fanin1}) {
        const std::uint32_t cn = aig::node_of(c);
        if (cn != 0 && mark_[cn] != epoch_) {
          mark_[cn] = epoch_;
          stack_.push_back(cn);
        }
      }
    }
    std::sort(cone_.begin(), cone_.end());  // AIG node order is topological
    for (const std::uint32_t n : cone_) {
      val_[n] = word(g_.node(n).fanin0) & word(g_.node(n).fanin1);
    }
    return word(claim) ==
           netlist::eval_gate(f, leaves.size(), [&fanin](std::size_t k) { return fanin[k]; });
  }

 private:
  [[nodiscard]] std::uint64_t word(aig::Lit l) const {
    const std::uint64_t v = aig::node_of(l) == 0 ? 0 : val_[aig::node_of(l)];
    return aig::is_complemented(l) ? ~v : v;
  }

  const aig::Aig& g_;
  std::vector<std::uint64_t> val_;
  std::vector<std::uint32_t> mark_;  ///< == epoch_: a leaf or cone node of this claim
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> cone_;
  std::vector<std::uint32_t> stack_;
};

/// One stage boundary's worth of point checks: structural signatures, the
/// checked witness literals, the lazily-built miter solver, and all loop
/// scratch live here so the per-point path never allocates beyond genuine
/// growth.
class PointChecker {
 public:
  PointChecker(const Netlist& golden, const Netlist& revised,
               const RegisterCorrespondence& corr, const CecOptions& opts, CecReport& report)
      : golden_(golden), revised_(revised), corr_(corr), opts_(opts), report_(report) {
    if (opts_.structural_tier) {
      {
        const obs::Span span("cec.signatures");
        side_signatures(golden_, sig_[0], {});
        side_signatures(revised_, sig_[1], corr_.inv);
      }
      if (!opts_.force_bdd) check_witnesses();
    }
  }

  /// Checks output `idx` (is_state == false) or golden DFF D-function `idx`
  /// against its correspondence partner (is_state == true). Returns false
  /// when a counterexample stopped the scan.
  bool check_point(std::size_t idx, bool is_state) {
    ++report_.checks;
    const NodeId ga = is_state ? golden_.fanin(golden_.dffs()[idx], 0)
                               : golden_.fanin(golden_.outputs()[idx], 0);
    const NodeId rb = is_state ? revised_.fanin(revised_.dffs()[corr_.perm[idx]], 0)
                               : revised_.fanin(revised_.outputs()[idx], 0);

    if (opts_.structural_tier && !opts_.force_bdd) {
      const bool same_witness = !wit_[0].empty() && wit_[0][ga.index()] != kNoLit &&
                                wit_[0][ga.index()] == wit_[1][rb.index()];
      if (same_witness || sig_[0][ga.index()] == sig_[1][rb.index()]) {
        ++report_.tier_struct;
        return true;
      }
    }

    const ConeSupport sup_a = cone_support(golden_, ga);
    ConeSupport sup_b = cone_support(revised_, rb);
    // Revised state leaves live in the revised index space; the
    // correspondence maps them onto golden indices so both supports merge in
    // one shared space.
    for (std::uint32_t& s : sup_b.states) s = corr_.inv[s];
    std::sort(sup_b.states.begin(), sup_b.states.end());
    merged_.inputs.clear();
    merged_.states.clear();
    std::set_union(sup_a.inputs.begin(), sup_a.inputs.end(), sup_b.inputs.begin(),
                   sup_b.inputs.end(), std::back_inserter(merged_.inputs));
    std::set_union(sup_a.states.begin(), sup_a.states.end(), sup_b.states.begin(),
                   sup_b.states.end(), std::back_inserter(merged_.states));
    // The revised extract needs the same leaves back in its own index space,
    // preserving the merged leaf order so column j means the same variable
    // on both sides.
    merged_rev_.inputs = merged_.inputs;
    merged_rev_.states.clear();
    for (const std::uint32_t s : merged_.states) merged_rev_.states.push_back(corr_.perm[s]);
    const int m = static_cast<int>(merged_.num_leaves());

    if (opts_.force_bdd) return check_by_bdd_then_sat(idx, is_state, ga, rb, m);
    if (m <= logic::TruthTable::kMaxVars) return check_by_table(idx, is_state, ga, rb, m);
    if (m <= opts_.max_exhaustive_inputs) return check_by_sweep(idx, is_state, ga, rb, m);
    // Once the SAT engine exists, structural hashing and the sweep's merges
    // map most remaining points onto one encoder literal: settle those
    // before building any BDD.
    if (solver_ && encoder_->encode(sat::MiterEncoder::Side::kGolden, ga) ==
                       encoder_->encode(sat::MiterEncoder::Side::kRevised, rb)) {
      ++report_.tier_struct;
      return true;
    }
    return check_by_bdd_then_sat(idx, is_state, ga, rb, m);
  }

  void finish() {
    if (solver_) report_.sat_stats = solver_->stats();
  }

 private:
  static constexpr aig::Lit kNoLit = Node::kNoWitness;

  /// Tier 1's witness rule. Fills wit_[side][node] with the golden-AIG
  /// literal each node is proven to compute, or kNoLit. Boundary nodes get
  /// theirs by position: inputs, registers (revised DFF d is golden latch
  /// corr_.inv[d]) and constants. In topological order, every golden gate
  /// must then equal its own aig::from_netlist literal, and every revised
  /// node its stamped witness, over its fanins' checked literals; a 1-input
  /// buffer or inverter without a witness takes its fanin's literal or its
  /// complement. A failed check counts in witness_rejects and leaves the
  /// node, and everything it feeds, to the ladder. Runs only when some
  /// revised comb node carries a witness.
  void check_witnesses() {
    bool stamped = false;
    for (const NodeId id : revised_.all_nodes()) {
      const Node& n = revised_.node(id);
      if (n.type == NodeType::kComb && n.witness != Node::kNoWitness) {
        stamped = true;
        break;
      }
    }
    if (!stamped) return;
    const obs::Span span("cec.witness");
    const aig::AigMapping m = aig::from_netlist(golden_);
    // Every boundary node gets its own AIG input (Aig::add_input never
    // shares one), so distinct golden variables never share a literal.
    VPGA_ASSERT(m.num_pis == golden_.inputs().size() &&
                m.aig.num_inputs() == golden_.inputs().size() + golden_.dffs().size());
    ClaimChecker claims(m.aig);
    const Netlist* nets[2] = {&golden_, &revised_};
    std::vector<aig::Lit> leaves;
    leaves.reserve(logic::TruthTable::kMaxVars);
    for (int side = 0; side < 2; ++side) {
      const Netlist& nl = *nets[side];
      std::vector<aig::Lit>& lit = wit_[side];
      lit.assign(nl.num_nodes(), kNoLit);
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        lit[nl.inputs()[i].index()] = aig::lit(m.aig.inputs()[i], false);
      }
      for (std::size_t d = 0; d < nl.dffs().size(); ++d) {
        const std::size_t g = side == 0 ? d : corr_.inv[d];
        lit[nl.dffs()[d].index()] = aig::lit(m.aig.inputs()[m.num_pis + g], false);
      }
      for (const NodeId id : nl.all_nodes()) {
        const Node& n = nl.node(id);
        if (n.type == NodeType::kConst) lit[id.index()] = n.func.eval(0) ? aig::kTrue : aig::kFalse;
      }
      for (const NodeId id : nl.topo_order()) {
        const Node& n = nl.node(id);
        if (n.type != NodeType::kComb) continue;
        leaves.clear();
        for (const NodeId fi : nl.fanins(id)) leaves.push_back(lit[fi.index()]);
        if (std::find(leaves.begin(), leaves.end(), kNoLit) != leaves.end()) continue;
        const aig::Lit claim = side == 0 ? m.node_lit[id.index()] : n.witness;
        if (claim == kNoLit) {
          if (n.num_fanins() == 1 && n.func.bits() == 0b10) lit[id.index()] = leaves[0];
          if (n.num_fanins() == 1 && n.func.bits() == 0b01) lit[id.index()] = aig::negate(leaves[0]);
        } else if (claims.holds(n.func, leaves, claim)) {
          lit[id.index()] = claim;
        } else {
          ++report_.witness_rejects;
        }
      }
    }
  }

  /// Node budget of the default ladder's first BDD attempt: the smallest power
  /// of two that still fits a 128-input parity miter (11,998 nodes). A cone
  /// that outgrows it goes to the SAT miter first; only a point the miter
  /// cannot settle pays for the full budget.
  static constexpr std::uint32_t kBddFirstBudget = 1u << 14;

  /// Tiers 4 and 5 for a point past the exhaustive tier: a BDD attempt, the
  /// SAT miter when its budget runs out, and a second BDD attempt at the
  /// full `bdd_node_budget` only when the miter runs out of conflicts. The
  /// default ladder's first attempt gets min(kBddFirstBudget,
  /// bdd_node_budget) nodes; force_bdd spends the full budget up front, so
  /// it never retries.
  bool check_by_bdd_then_sat(std::size_t idx, bool is_state, NodeId ga, NodeId rb, int m) {
    const std::uint32_t first_budget =
        opts_.force_bdd ? opts_.bdd_node_budget : std::min(kBddFirstBudget, opts_.bdd_node_budget);
    bool resolved = false;
    if (opts_.force_bdd || opts_.bdd_tier) {
      const bool scan = check_by_bdd(idx, is_state, ga, rb, m, first_budget, resolved);
      if (resolved) return scan;
    }
    if (const bool scan = check_by_sat(idx, is_state, ga, rb, resolved); resolved) return scan;
    if (opts_.bdd_tier && first_budget < opts_.bdd_node_budget) {
      const bool scan = check_by_bdd(idx, is_state, ga, rb, m, opts_.bdd_node_budget, resolved);
      if (resolved) return scan;
    }
    ++report_.unknown;
    report_.unknown_points.push_back(point_name(idx, is_state));
    return true;
  }

  /// Tier 2: collapse both cones over the merged support and compare tables.
  bool check_by_table(std::size_t idx, bool is_state, NodeId ga, NodeId rb, int m) {
    const Netlist ca = extract_cone(golden_, ga, merged_);
    const Netlist cb = extract_cone(revised_, rb, merged_rev_);
    const logic::TruthTable ta = cone_table(ca, m, tts_, args_);
    const logic::TruthTable tb = cone_table(cb, m, tts_, args_);
    if (ta == tb) {
      ++report_.tier_table;
      return true;
    }
    // Inequivalent: the first differing row is the counterexample.
    unsigned row = 0;
    while (ta.eval(row) == tb.eval(row)) ++row;
    ++report_.tier_table;
    record_cex_from_row(idx, is_state, row, 0);
    return false;
  }

  /// Tier 3: exhaustive 64-way sweep over the merged support (7..16 leaves).
  bool check_by_sweep(std::size_t idx, bool is_state, NodeId ga, NodeId rb, int m) {
    VPGA_ASSERT(m > 6 && m <= 16);
    const Netlist ca = extract_cone(golden_, ga, merged_);
    const Netlist cb = extract_cone(revised_, rb, merged_rev_);
    BitSimulator sa(ca);
    BitSimulator sb(cb);
    for (int i = 0; i < 6; ++i) {
      sa.set_input(static_cast<std::size_t>(i), kLanes[static_cast<std::size_t>(i)]);
      sb.set_input(static_cast<std::size_t>(i), kLanes[static_cast<std::size_t>(i)]);
    }
    const std::uint32_t blocks = std::uint32_t{1} << (m - 6);
    for (std::uint32_t block = 0; block < blocks; ++block) {
      for (int i = 6; i < m; ++i) {
        const std::uint64_t w = ((block >> (i - 6)) & 1u) != 0 ? ~std::uint64_t{0} : 0;
        sa.set_input(static_cast<std::size_t>(i), w);
        sb.set_input(static_cast<std::size_t>(i), w);
      }
      sa.eval();
      sb.eval();
      const std::uint64_t diff = sa.output(0) ^ sb.output(0);
      if (diff != 0) {
        ++report_.tier_exhaustive;
        record_cex_from_row(idx, is_state,
                            static_cast<unsigned>(std::countr_zero(diff)), block);
        return false;
      }
    }
    ++report_.tier_exhaustive;
    return true;
  }

  /// Tier 4: both cones become ROBDDs in one manager under a shared
  /// DFS-derived variable order, so the verdict is a root-edge compare and a
  /// refutation is one satisfying path of the XOR of the roots. Sets
  /// `resolved` false when `node_budget` ran out — the point then moves on
  /// to the next tier instead of this one growing without bound.
  bool check_by_bdd(std::size_t idx, bool is_state, NodeId ga, NodeId rb, int m,
                    std::uint32_t node_budget, bool& resolved) {
    const obs::Span span("cec.bdd");
    const Netlist ca = extract_cone(golden_, ga, merged_);
    const Netlist cb = extract_cone(revised_, rb, merged_rev_);
    bdd::BddManager mgr(node_budget);
    bdd_order(ca, cb);
    const bdd::Ref fa = cone_bdd(mgr, ca);
    const bdd::Ref fb = cone_bdd(mgr, cb);
    bdd::Ref miter = bdd::kInvalid;
    if (fa != bdd::kInvalid && fb != bdd::kInvalid && fa != fb) {
      miter = mgr.bdd_xor(fa, fb);
    }
    report_.bdd_nodes += static_cast<long long>(mgr.num_nodes());
    report_.bdd_ite_calls += mgr.stats().ite_calls;
    report_.bdd_cache_hits += mgr.stats().cache_hits;
    if (mgr.exhausted()) {
      ++report_.bdd_fallbacks;
      resolved = false;
      return true;
    }
    resolved = true;
    ++report_.tier_bdd;
    if (fa == fb) return true;
    // Canonicity: distinct roots mean the XOR is satisfiable — walk one path.
    const bool sat = mgr.one_sat(miter, static_cast<std::uint32_t>(m), path_vals_);
    VPGA_ASSERT(sat && "distinct ROBDD roots must have a satisfiable XOR");
    leaf_vals_.assign(static_cast<std::size_t>(m), 0);
    for (std::size_t j = 0; j < merged_.num_leaves(); ++j) {
      leaf_vals_[j] = path_vals_[bdd_level_[j]];
    }
    record_cex_from_leaves(idx, is_state, leaf_vals_);
    return false;
  }

  static constexpr std::uint32_t kNoLevel = 0xFFFFFFFFu;

  /// Assigns BDD levels to the merged leaves in depth-first discovery order
  /// from the golden cone's root (revised-only leaves follow, then leaves
  /// neither cone reads). DFS discovery keeps the leaves of one subcone on
  /// adjacent levels — a static cut-width-style order that keeps chained and
  /// tree-shaped arithmetic linear-sized.
  void bdd_order(const Netlist& ca, const Netlist& cb) {
    bdd_level_.assign(merged_.num_leaves(), kNoLevel);
    std::uint32_t next = 0;
    bdd_order_dfs(ca, next);
    bdd_order_dfs(cb, next);
    for (std::size_t j = 0; j < bdd_level_.size(); ++j) {
      if (bdd_level_[j] == kNoLevel) bdd_level_[j] = next++;
    }
  }

  void bdd_order_dfs(const Netlist& cone, std::uint32_t& next) {
    // cone.inputs()[j] is merged leaf j by construction of extract_cone.
    bdd_leaf_of_.assign(cone.num_nodes(), kNoLevel);
    for (std::size_t j = 0; j < cone.inputs().size(); ++j) {
      bdd_leaf_of_[cone.inputs()[j].index()] = static_cast<std::uint32_t>(j);
    }
    bdd_visited_.assign(cone.num_nodes(), 0);
    bdd_stack_.clear();
    const NodeId root = cone.fanin(cone.outputs()[0], 0);
    bdd_stack_.push_back(root);
    bdd_visited_[root.index()] = 1;
    while (!bdd_stack_.empty()) {
      const NodeId id = bdd_stack_.back();
      bdd_stack_.pop_back();
      const std::uint32_t leaf = bdd_leaf_of_[id.index()];
      if (leaf != kNoLevel && bdd_level_[leaf] == kNoLevel) bdd_level_[leaf] = next++;
      const Node& nd = cone.node(id);
      if (nd.type != NodeType::kComb) continue;
      const std::span<const NodeId> fis = cone.fanins(id);
      for (std::size_t k = fis.size(); k-- > 0;) {  // reverse push: fanin 0 first
        if (bdd_visited_[fis[k].index()] == 0) {
          bdd_visited_[fis[k].index()] = 1;
          bdd_stack_.push_back(fis[k]);
        }
      }
    }
  }

  /// Builds the ROBDD of an extracted cone under the shared level map.
  bdd::Ref cone_bdd(bdd::BddManager& mgr, const Netlist& cone) {
    bdd_refs_.assign(cone.num_nodes(), bdd::kInvalid);
    for (std::size_t j = 0; j < cone.inputs().size(); ++j) {
      bdd_refs_[cone.inputs()[j].index()] = mgr.var(bdd_level_[j]);
    }
    for (const NodeId id : cone.all_nodes()) {
      const Node& nd = cone.node(id);
      if (nd.type == NodeType::kConst) {
        bdd_refs_[id.index()] = nd.func.eval(0) ? bdd::kTrue : bdd::kFalse;
      }
    }
    for (const NodeId id : cone.topo_order()) {
      const Node& nd = cone.node(id);
      if (nd.type != NodeType::kComb) continue;
      bdd::Ref args[logic::TruthTable::kMaxVars] = {};
      const std::span<const NodeId> fis = cone.fanins(id);
      for (std::size_t k = 0; k < fis.size(); ++k) args[k] = bdd_refs_[fis[k].index()];
      bdd_refs_[id.index()] = gate_bdd(mgr, nd.func, args, static_cast<int>(fis.size()));
      if (mgr.exhausted()) return bdd::kInvalid;
    }
    return bdd_refs_[cone.fanin(cone.outputs()[0], 0).index()];
  }

  /// Shannon-expands a gate's truth table over its fanin BDDs (arity <= 6, so
  /// the recursion is at most depth 6 with 2^6 leaves).
  static bdd::Ref gate_bdd(bdd::BddManager& mgr, const logic::TruthTable& tt,
                           const bdd::Ref* args, int k) {
    if (tt.bits() == 0) return bdd::kFalse;
    if (tt == logic::TruthTable::constant(k, true)) return bdd::kTrue;
    // Non-constant => k >= 1.
    const bdd::Ref hi = gate_bdd(mgr, tt.cofactor(k - 1, true), args, k - 1);
    const bdd::Ref lo = gate_bdd(mgr, tt.cofactor(k - 1, false), args, k - 1);
    return mgr.ite(args[k - 1], hi, lo);
  }

  /// Tier 5: per-point miter under a selector assumption on the shared
  /// incremental solver. Branching is unrestricted here: a point's miter is
  /// the verdict, and confining its decisions to the two cones made the
  /// search slower, not faster. Sets `resolved` false when the miter ran out
  /// of conflicts.
  bool check_by_sat(std::size_t idx, bool is_state, NodeId ga, NodeId rb, bool& resolved) {
    if (!solver_) {
      solver_ = std::make_unique<sat::Solver>();
      encoder_ = std::make_unique<sat::MiterEncoder>(golden_, revised_, *solver_, corr_.inv);
      if (opts_.sat_sweep) {
        const obs::Span span("cec.sweep");
        sat_sweep();
      }
    }
    const sat::Lit la = encoder_->encode(sat::MiterEncoder::Side::kGolden, ga);
    const sat::Lit lb = encoder_->encode(sat::MiterEncoder::Side::kRevised, rb);
    resolved = true;
    if (la == lb) {
      // Structural hashing inside the encoder already merged the two cones.
      ++report_.tier_struct;
      return true;
    }
    const obs::Span span("cec.miter");
    const sat::Lit sel(solver_->new_var(), false);
    solver_->add_clause({~sel, la, lb});
    solver_->add_clause({~sel, ~la, ~lb});
    const sat::Lit assumption[1] = {sel};
    const sat::Result res =
        solver_->solve(std::span<const sat::Lit>(assumption, 1), opts_.sat_conflict_budget);
    if (res == sat::Result::kUnsat) {
      ++report_.tier_sat;
      solver_->add_clause({~sel});  // retire this point's miter
      return true;
    }
    if (res == sat::Result::kUnknown) {
      resolved = false;
      solver_->add_clause({~sel});
      return true;
    }
    ++report_.tier_sat;
    CecCounterexample cex;
    cex.inputs.assign(golden_.inputs().size(), 0);
    cex.state.assign(golden_.dffs().size(), 0);
    for (std::size_t i = 0; i < encoder_->num_inputs(); ++i) {
      cex.inputs[i] = solver_->model_value(encoder_->input_lit(i).var()) ? 1 : 0;
    }
    for (std::size_t d = 0; d < encoder_->num_states(); ++d) {
      cex.state[d] = solver_->model_value(encoder_->state_lit(d).var()) ? 1 : 0;
    }
    verify_and_store(idx, is_state, std::move(cex));
    return false;
  }

  static constexpr long long kSweepBudget = 100;  ///< conflicts per candidate proof

  /// SAT sweeping: simulate both netlists on the same deterministic stimulus,
  /// register every golden comb node under its 256-pattern signature
  /// (complement-canonical), then walk the revised netlist bottom-up proving
  /// each signature match with a small miter. A proven match rebinds the
  /// revised node to the golden literal, so the eventual output miters are
  /// between largely-merged cones — the difference between multiplier CEC
  /// finishing in milliseconds and not finishing at all.
  void sat_sweep() {
    common::Rng rng(0xCEC5EEDull);  // fixed seed: sweep results are byte-stable
    stimulus_.resize(golden_.inputs().size() + golden_.dffs().size());
    for (std::size_t w = 0; w < Word256::kWords; ++w) {
      for (Word256& slot : stimulus_) slot.w[w] = rng.next_u64();
    }
    sim_signatures(golden_, sweep_sig_[0], {});
    sim_signatures(revised_, sweep_sig_[1], corr_.inv);
    for (const NodeId id : golden_.topo_order()) {
      if (golden_.node(id).type != NodeType::kComb) continue;
      const sat::Lit lit = encoder_->encode(sat::MiterEncoder::Side::kGolden, id);
      sweep_node(0, id, lit);
    }
    for (const NodeId id : revised_.topo_order()) {
      if (revised_.node(id).type != NodeType::kComb) continue;
      const sat::Lit lit = encoder_->encode(sat::MiterEncoder::Side::kRevised, id);
      sweep_node(1, id, lit);
    }
  }

  /// Evaluates the 256 shared stimulus patterns through `nl` in one pass,
  /// storing every node's response in `sig`. Stimulus slot i drives input i
  /// and slot inputs + d drives DFF d; `state_key` (the revised side's
  /// correspondence) redirects each DFF to its golden partner's slot so
  /// corresponding leaves see identical patterns.
  void sim_signatures(const Netlist& nl, std::vector<Word256>& sig,
                      std::span<const std::uint32_t> state_key) {
    netlist::BasicBitSimulator<Word256> sim(nl);
    const std::size_t ni = nl.inputs().size();
    for (std::size_t i = 0; i < ni; ++i) sim.set_input(i, stimulus_[i]);
    for (std::size_t d = 0; d < nl.dffs().size(); ++d) {
      sim.set_state(d, stimulus_[ni + (state_key.empty() ? d : state_key[d])]);
    }
    sim.eval();
    sig.resize(nl.num_nodes());
    for (const NodeId id : nl.all_nodes()) sig[id.index()] = sim.value(id);
  }

  /// Registers node `id` (literal `lit`) under its canonical signature, or —
  /// for the revised side — proves it equal to the registered representative
  /// and rebinds it. Registration keys carry the full 256-bit signature, so
  /// only genuinely signature-equal nodes ever meet. The proof branches only
  /// on the variables of the two cones: the shared solver would otherwise
  /// decide on leaves and stale high-activity variables elsewhere. A
  /// restricted kSat is a real divergence whenever the cones are complete,
  /// and the sweep drops SAT models anyway, so at worst it costs a merge,
  /// never a verdict.
  void sweep_node(int side, NodeId id, sat::Lit lit) {
    const auto& sig = sweep_sig_[side][id.index()].w;
    const bool phase = (sig[0] & 1u) != 0;  // complement-canonical form
    const std::uint64_t w0 = phase ? ~sig[0] : sig[0];
    const std::uint64_t w1 = phase ? ~sig[1] : sig[1];
    const std::uint64_t w2 = phase ? ~sig[2] : sig[2];
    const std::uint64_t w3 = phase ? ~sig[3] : sig[3];
    common::FnKey key;
    key.tag = 5;
    key.bits = w0;
    key.kids[0] = static_cast<std::uint32_t>(w1);
    key.kids[1] = static_cast<std::uint32_t>(w1 >> 32);
    key.kids[2] = static_cast<std::uint32_t>(w2);
    key.kids[3] = static_cast<std::uint32_t>(w2 >> 32);
    key.kids[4] = static_cast<std::uint32_t>(w3);
    key.kids[5] = static_cast<std::uint32_t>(w3 >> 32);
    const sat::Lit canon = phase ? ~lit : lit;
    const std::uint32_t found = sweepmap_.find_or_insert(key, canon.code());
    if (found == canon.code() || side == 0) return;  // representative, or golden pass
    const sat::Lit rep = phase ? ~sat::Lit::from_code(found) : sat::Lit::from_code(found);
    if (rep == lit) return;  // already shared via structural hashing
    const sat::Lit sel(solver_->new_var(), false);
    solver_->add_clause({~sel, lit, rep});
    solver_->add_clause({~sel, ~lit, ~rep});
    const sat::Lit assumption[1] = {sel};
    const sat::Lit roots[2] = {lit, rep};
    const sat::Result res = solver_->solve(std::span<const sat::Lit>(assumption, 1), kSweepBudget,
                                           encoder_->cone_vars(roots));
    solver_->add_clause({~sel});
    if (res != sat::Result::kUnsat) return;  // candidate refuted or budget-out
    solver_->add_clause({~lit, rep});
    solver_->add_clause({lit, ~rep});
    encoder_->set_lit(sat::MiterEncoder::Side::kRevised, id, rep);
    ++report_.sweep_merges;
  }

  /// Expands a merged-support row (low 6 bits in `row`, leaves >= 6 in
  /// `block`) into a full-interface counterexample and stores it.
  void record_cex_from_row(std::size_t idx, bool is_state, unsigned row, std::uint32_t block) {
    leaf_vals_.assign(merged_.num_leaves(), 0);
    for (std::size_t j = 0; j < merged_.num_leaves(); ++j) {
      leaf_vals_[j] = j < 6 ? static_cast<std::uint8_t>((row >> j) & 1u)
                            : static_cast<std::uint8_t>((block >> (j - 6)) & 1u);
    }
    record_cex_from_leaves(idx, is_state, leaf_vals_);
  }

  /// Expands one 0/1 value per merged leaf (BDD path or exhaustive row) into
  /// a full-interface counterexample and stores it. State leaves are golden
  /// indices, so the witness is always expressed on the golden interface.
  void record_cex_from_leaves(std::size_t idx, bool is_state,
                              const std::vector<std::uint8_t>& leaves) {
    CecCounterexample cex;
    cex.inputs.assign(golden_.inputs().size(), 0);
    cex.state.assign(golden_.dffs().size(), 0);
    const std::size_t ni = merged_.inputs.size();
    for (std::size_t j = 0; j < merged_.num_leaves(); ++j) {
      if (j < ni) {
        cex.inputs[merged_.inputs[j]] = leaves[j];
      } else {
        cex.state[merged_.states[j - ni]] = leaves[j];
      }
    }
    verify_and_store(idx, is_state, std::move(cex));
  }

  /// Replays the counterexample through the original netlists (broadcast
  /// words on the 64-way simulator) and asserts it witnesses the divergence
  /// before it is allowed into the report.
  void verify_and_store(std::size_t idx, bool is_state, CecCounterexample cex) {
    BitSimulator sg(golden_);
    BitSimulator sr(revised_);
    for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
      const std::uint64_t w = cex.inputs[i] != 0 ? ~std::uint64_t{0} : 0;
      sg.set_input(i, w);
      sr.set_input(i, w);
    }
    for (std::size_t d = 0; d < cex.state.size(); ++d) {
      const std::uint64_t w = cex.state[d] != 0 ? ~std::uint64_t{0} : 0;
      sg.set_state(d, w);
      sr.set_state(corr_.perm[d], w);  // the revised partner sees the same value
    }
    sg.eval();
    sr.eval();
    const std::uint64_t vg = is_state ? sg.next_state(idx) : sg.output(idx);
    const std::uint64_t vr = is_state ? sr.next_state(corr_.perm[idx]) : sr.output(idx);
    VPGA_ASSERT_MSG((vg & 1) != (vr & 1), "CEC counterexample failed simulation replay");
    cex.point_index = idx;
    cex.is_state = is_state;
    cex.point = point_name(idx, is_state);
    report_.cex = std::move(cex);
    report_.equivalent = false;
  }

  [[nodiscard]] std::string point_name(std::size_t idx, bool is_state) const {
    const NodeId id = is_state ? golden_.dffs()[idx] : golden_.outputs()[idx];
    const std::string& name = golden_.name_of(id);
    if (!name.empty()) return name;
    return (is_state ? "dff[" : "output[") + std::to_string(idx) + "]";
  }

  /// Shared structural signatures: identical cones — across both netlists —
  /// get identical dense ids, making tier 1 a single compare per point.
  /// `state_key` (the revised side's correspondence) keys each DFF leaf by
  /// its golden partner so corresponding registers share a signature.
  void side_signatures(const Netlist& nl, std::vector<std::uint32_t>& sig,
                       std::span<const std::uint32_t> state_key) {
    sig.assign(nl.num_nodes(), 0);
    common::FnKey key;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      key = common::FnKey();
      key.tag = 1;
      key.bits = i;
      sig[nl.inputs()[i].index()] = fresh_sig(key);
    }
    for (std::size_t d = 0; d < nl.dffs().size(); ++d) {
      key = common::FnKey();
      key.tag = 2;
      key.bits = state_key.empty() ? d : state_key[d];
      sig[nl.dffs()[d].index()] = fresh_sig(key);
    }
    for (const NodeId id : nl.all_nodes()) {
      if (nl.node(id).type != NodeType::kConst) continue;
      key = common::FnKey();
      key.tag = 3;
      key.bits = nl.node(id).func.eval(0) ? 1 : 0;
      sig[id.index()] = fresh_sig(key);
    }
    for (const NodeId id : nl.topo_order()) {
      const Node& n = nl.node(id);
      if (n.type != NodeType::kComb) continue;
      key = common::FnKey();
      key.bits = n.func.bits();
      key.arity = static_cast<std::uint8_t>(n.num_fanins());
      const std::span<const NodeId> fis = nl.fanins(id);
      for (std::size_t k = 0; k < fis.size(); ++k) key.kids[k] = sig[fis[k].index()];
      sig[id.index()] = fresh_sig(key);
    }
  }

  std::uint32_t fresh_sig(const common::FnKey& key) {
    return sigmap_.find_or_insert(key, static_cast<std::uint32_t>(sigmap_.size()) + 1);
  }

  const Netlist& golden_;
  const Netlist& revised_;
  const RegisterCorrespondence& corr_;
  const CecOptions& opts_;
  CecReport& report_;
  common::FnKeyMap sigmap_;
  std::vector<std::uint32_t> sig_[2];
  std::vector<aig::Lit> wit_[2];  ///< checked witness literal per node, or kNoLit
  common::FnKeyMap sweepmap_;
  std::vector<Word256> stimulus_;  ///< one 256-pattern word per input, then per DFF
  std::vector<Word256> sweep_sig_[2];
  ConeSupport merged_;
  ConeSupport merged_rev_;  ///< merged support in the revised index space
  std::vector<logic::TruthTable> tts_;
  std::vector<logic::TruthTable> args_;
  // BDD-tier scratch, hoisted like the rest of the per-point loop state.
  std::vector<std::uint32_t> bdd_level_;
  std::vector<std::uint32_t> bdd_leaf_of_;
  std::vector<std::uint8_t> bdd_visited_;
  std::vector<NodeId> bdd_stack_;
  std::vector<bdd::Ref> bdd_refs_;
  std::vector<std::uint8_t> path_vals_;
  std::vector<std::uint8_t> leaf_vals_;
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<sat::MiterEncoder> encoder_;
};

/// Writes the counterexample as JSON (the CI exact-gate artifact format).
void dump_cex_json(const char* path, const Netlist& golden, const std::string& stage,
                   const CecCounterexample& cex) {
  std::ofstream os(path);
  if (!os) return;
  std::string out = "{\n  \"design\": ";
  obs::json::append_string(out, golden.name());
  out += ",\n  \"stage\": ";
  obs::json::append_string(out, stage);
  out += ",\n  \"point\": ";
  obs::json::append_string(out, cex.point);
  out += ",\n  \"is_state\": ";
  out += cex.is_state ? "true" : "false";
  out += ",\n  \"inputs\": [";
  for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += cex.inputs[i] != 0 ? '1' : '0';
  }
  out += "],\n  \"state\": [";
  for (std::size_t d = 0; d < cex.state.size(); ++d) {
    out += d == 0 ? "" : ", ";
    out += cex.state[d] != 0 ? '1' : '0';
  }
  out += "]\n}\n";
  os << out;
}

/// Compact 0/1 string for diagnostics ("inputs=0110 state=01").
std::string bits_to_string(const std::vector<std::uint8_t>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (const std::uint8_t b : bits) s.push_back(b != 0 ? '1' : '0');
  return s;
}

}  // namespace

std::uint64_t netlist_fingerprint(const Netlist& nl) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
  };
  // Buffers (1-input identity gates) are transparent: they are skipped and
  // fanin references resolve through them, so the fingerprint is invariant
  // under high-fanout buffering — which inserts buffers by appending nodes,
  // leaving every pre-existing index in place.
  auto is_buffer = [&nl](NodeId id) {
    const Node& n = nl.node(id);
    return n.type == NodeType::kComb && n.num_fanins() == 1 && n.func.bits() == 2;
  };
  auto resolve = [&](NodeId id) {
    while (is_buffer(id)) id = nl.fanin(id, 0);
    return id;
  };
  std::uint64_t h = mix(nl.inputs().size(), nl.outputs().size());
  h = mix(h, nl.dffs().size());
  for (const NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    if (is_buffer(id)) continue;
    h = mix(h, static_cast<std::uint64_t>(n.type));
    h = mix(h, n.func.bits());
    for (const NodeId fi : nl.fanins(id)) h = mix(h, resolve(fi).index());
  }
  return h;
}

namespace {

std::string dff_display_name(const Netlist& nl, std::size_t d) {
  const std::string& name = nl.name_of(nl.dffs()[d]);
  if (!name.empty()) return name;
  return "dff[" + std::to_string(d) + "]";
}

}  // namespace

CecReport check_combinational_equivalence(const Netlist& golden, const Netlist& revised,
                                          const CecOptions& opts) {
  CecReport report;
  if (golden.inputs().size() != revised.inputs().size() ||
      golden.outputs().size() != revised.outputs().size() ||
      golden.dffs().size() != revised.dffs().size()) {
    report.interface_ok = false;
    report.equivalent = false;
    return report;
  }
  RegisterCorrespondence corr;
  {
    const obs::Span span("cec.corr");
    corr = match_registers(golden, revised);
  }
  report.corr_classes = corr.classes;
  report.corr_rounds = corr.rounds;
  report.corr_permuted = corr.permuted;
  report.corr_fallbacks = corr.fallbacks;
  if (!corr.complete()) {
    // Without a state bijection the point comparison is not well defined:
    // report the orphans and let the caller surface cec.state-unmatched.
    for (const std::size_t d : corr.unmatched_golden) {
      report.unmatched_registers.push_back(dff_display_name(golden, d));
    }
    for (const std::size_t d : corr.unmatched_revised) {
      report.unmatched_registers.push_back("revised:" + dff_display_name(revised, d));
    }
    return report;
  }
  PointChecker checker(golden, revised, corr, opts, report);
  bool scanning = true;
  for (std::size_t o = 0; scanning && o < golden.outputs().size(); ++o) {
    scanning = checker.check_point(o, false);
  }
  for (std::size_t d = 0; scanning && d < golden.dffs().size(); ++d) {
    scanning = checker.check_point(d, true);
  }
  checker.finish();
  return report;
}

void check_cec(const Netlist& golden, const Netlist& revised, const std::string& stage,
               VerifyReport& report, const CecOptions& opts) {
  const obs::Span span("verify.cec");
  CecOptions eff = opts;
  // CI's forced-BDD exact run flips the tier routing from the outside.
  if (const char* force = std::getenv("VPGA_CEC_FORCE_BDD");
      force != nullptr && force[0] != '\0' && force[0] != '0') {
    eff.force_bdd = true;
  }
  const CecReport cec = check_combinational_equivalence(golden, revised, eff);

  obs::count("cec.points", cec.checks);
  obs::count("cec.witness_rejects", cec.witness_rejects);
  obs::count("cec.sweep_merges", cec.sweep_merges);
  obs::count("cec.unknown", cec.unknown);
  // The per-point tier-resolution family: one counter per ladder tier, so
  // BENCH_flow.json breaks down where points land.
  obs::count("cec.tier_resolved.structural", cec.tier_struct);
  obs::count("cec.tier_resolved.truth", cec.tier_table);
  obs::count("cec.tier_resolved.bitsim", cec.tier_exhaustive);
  obs::count("cec.tier_resolved.bdd", cec.tier_bdd);
  obs::count("cec.tier_resolved.sat", cec.tier_sat);
  obs::count("cec.bdd_nodes", cec.bdd_nodes);
  obs::count("cec.bdd_ite_calls", cec.bdd_ite_calls);
  obs::count("cec.bdd_cache_hits", cec.bdd_cache_hits);
  obs::count("cec.bdd_fallbacks", cec.bdd_fallbacks);
  obs::count("cec.corr_classes", cec.corr_classes);
  obs::count("cec.corr_rounds", cec.corr_rounds);
  obs::count("cec.corr_permuted", cec.corr_permuted);
  obs::count("cec.corr_fallbacks", cec.corr_fallbacks);
  obs::count("cec.corr_unmatched", static_cast<long long>(cec.unmatched_registers.size()));
  obs::count("sat.conflicts", cec.sat_stats.conflicts);
  obs::count("sat.decisions", cec.sat_stats.decisions);
  obs::count("sat.propagations", cec.sat_stats.propagations);
  obs::count("sat.restarts", cec.sat_stats.restarts);
  obs::count("sat.learned", cec.sat_stats.learned_clauses);

  if (!cec.interface_ok) {
    report.add(Severity::kError, "cec.interface-mismatch", stage, NodeId(),
               "interface differs from the equivalence baseline: inputs " +
                   std::to_string(golden.inputs().size()) + " vs " +
                   std::to_string(revised.inputs().size()) + ", outputs " +
                   std::to_string(golden.outputs().size()) + " vs " +
                   std::to_string(revised.outputs().size()) + ", dffs " +
                   std::to_string(golden.dffs().size()) + " vs " +
                   std::to_string(revised.dffs().size()));
    return;
  }
  if (!cec.unmatched_registers.empty()) {
    report.add(Severity::kError, "cec.state-unmatched", stage, NodeId(),
               std::to_string(cec.unmatched_registers.size()) +
                   " register(s) have no correspondence partner (signature refinement and "
                   "positional fallback both failed), first: " +
                   cec.unmatched_registers.front());
    return;
  }
  if (cec.cex.has_value()) {
    const CecCounterexample& cex = *cec.cex;
    if (const char* path = std::getenv("VPGA_CEC_CEX_PATH"); path != nullptr) {
      dump_cex_json(path, golden, stage, cex);
    }
    report.add(Severity::kError,
               cex.is_state ? "cec.state-diverges" : "cec.output-diverges", stage, NodeId(),
               (cex.is_state ? "next-state function of '" : "output '") + cex.point +
                   "' differs from the equivalence baseline; counterexample inputs=" +
                   bits_to_string(cex.inputs) +
                   (cex.state.empty() ? std::string() : " state=" + bits_to_string(cex.state)));
  }
  if (cec.unknown > 0) {
    // An unknown point ran out of its SAT miter's conflicts and, whenever the
    // BDD tier runs, of the full node budget too (the retry, or force_bdd's
    // only attempt).
    std::string budgets =
        "the SAT conflict budget (" + std::to_string(eff.sat_conflict_budget) + ")";
    if (eff.bdd_tier || eff.force_bdd) {
      budgets += " and the BDD node budget (" + std::to_string(eff.bdd_node_budget) + ")";
    }
    report.add(Severity::kWarning, "cec.resource-limit", stage, NodeId(),
               std::to_string(cec.unknown) + " point(s) exhausted " + budgets +
                   ", first: " + cec.unknown_points.front());
  }
}

}  // namespace vpga::verify

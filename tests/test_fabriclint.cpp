// Fixture tests for every fabriclint rule (docs/LINT.md): one failing and
// one passing snippet per rule id, suppression-comment behavior, JSON-output
// round-trip through the bundled obs/json.hpp parser, and the
// catalogue <-> docs/LINT.md sync check. A registry of fired rule ids is
// cross-checked against kLintCatalogue so a rule added to the engine without
// fixtures fails here (same enforcement pattern as test_verify.cpp).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "callgraph.hpp"
#include "catalogue.hpp"
#include "dataflow.hpp"
#include "fabriclint.hpp"
#include "obs/json.hpp"
#include "symbols.hpp"

namespace {

using vpga::fabriclint::Finding;
using vpga::fabriclint::ObsRegistry;
using vpga::fabriclint::SourceFile;

std::set<std::string>& fired_registry() {
  static std::set<std::string> fired;
  return fired;
}

void record(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) fired_registry().insert(f.rule);
}

std::vector<Finding> run_lint(std::string_view rel_path, std::string_view source,
                              const ObsRegistry* registry = nullptr) {
  auto findings = vpga::fabriclint::lint_source(rel_path, source, registry);
  record(findings);
  return findings;
}

bool has_rule(const std::vector<Finding>& findings, std::string_view rule) {
  for (const Finding& f : findings)
    if (f.rule == rule) return true;
  return false;
}

// Drives the semantic engine (symbol tables + call graph + conc./flow.
// rules) on in-memory project fixtures.
std::vector<Finding> run_project(std::vector<SourceFile> files) {
  auto findings = vpga::fabriclint::lint_project(files);
  record(findings);
  return findings;
}

ObsRegistry small_registry() {
  ObsRegistry reg;
  reg.spans = {"stage.map", "pack.attempt"};
  reg.metrics = {"route.nets", "pack.groups"};
  reg.events = {"flow.begin", "flow.seed"};
  return reg;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// det.unordered-iter
// ---------------------------------------------------------------------------

TEST(DetUnorderedIter, FlagsRangeForOverUnorderedMember) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <unordered_map>
    std::unordered_map<int, int> table_;
    int sum() {
      int s = 0;
      for (const auto& [k, v] : table_) s += v;
      return s;
    }
  )cpp");
  ASSERT_TRUE(has_rule(findings, "det.unordered-iter"));
  EXPECT_EQ(findings[0].line, 6);
}

TEST(DetUnorderedIter, PassesOnVectorAndOnLookups) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <unordered_map>
    #include <vector>
    std::unordered_map<int, int> table_;
    std::vector<int> order_;
    int sum() {
      int s = 0;
      for (int k : order_) s += table_.at(k);  // index-ordered iteration
      return s;
    }
  )cpp");
  EXPECT_FALSE(has_rule(findings, "det.unordered-iter"));
}

TEST(DetUnorderedIter, SortedDownstreamAnnotationSuppresses) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <unordered_map>
    std::unordered_map<int, int> table_;
    int count_all() {
      int n = 0;
      // fabriclint: sorted-downstream -- commutative count, order washes out
      for (const auto& [k, v] : table_) ++n;
      return n;
    }
  )cpp");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// det.raw-rng
// ---------------------------------------------------------------------------

TEST(DetRawRng, FlagsMt19937AndRandCall) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <random>
    int noise() {
      std::mt19937 gen(42);
      return rand() % 7;
    }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "det.raw-rng"));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(DetRawRng, PassesOnProjectRngAndInsideRngHeader) {
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include "common/rng.hpp"
    int noise(vpga::common::Rng& rng) { return static_cast<int>(rng.next_below(7)); }
  )cpp")
                  .empty());
  // The one blessed home of RNG machinery is exempt.
  EXPECT_TRUE(run_lint("src/common/rng.hpp", "// not std::mt19937\nint rand();\n").empty());
}

// ---------------------------------------------------------------------------
// det.ptr-order
// ---------------------------------------------------------------------------

TEST(DetPtrOrder, FlagsPointerComparatorLambda) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <algorithm>
    #include <vector>
    struct Node { int id; };
    void order(std::vector<Node*>& v) {
      std::sort(v.begin(), v.end(), [](const Node* a, const Node* b) { return a < b; });
    }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "det.ptr-order"));
}

TEST(DetPtrOrder, FlagsStdLessOverPointerAndAddressCompare) {
  EXPECT_TRUE(has_rule(run_lint("src/x/x.cpp", R"cpp(
    #include <map>
    struct Node { int id; };
    std::map<Node*, int, std::less<Node*>> rank_;
  )cpp"),
                       "det.ptr-order"));
  EXPECT_TRUE(has_rule(run_lint("src/x/x.cpp", R"cpp(
    struct Node { int id; };
    bool before(const Node& x, const Node& y) { return &x < &y; }
  )cpp"),
                       "det.ptr-order"));
}

TEST(DetPtrOrder, PassesOnStableKeyComparator) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <algorithm>
    #include <vector>
    struct Node { int id; };
    void order(std::vector<Node*>& v) {
      std::sort(v.begin(), v.end(),
                [](const Node* a, const Node* b) { return a->id < b->id; });
    }
  )cpp");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// det.wall-clock
// ---------------------------------------------------------------------------

TEST(DetWallClock, FlagsSystemClockAndBareTime) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <chrono>
    #include <ctime>
    long stamp() {
      auto t = std::chrono::system_clock::now();
      (void)t;
      return time(nullptr);
    }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "det.wall-clock"));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(DetWallClock, PassesOnSteadyClockAndInsideObs) {
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include <chrono>
    auto tick() { return std::chrono::steady_clock::now(); }
  )cpp")
                  .empty());
  // src/obs/ owns the clocks.
  EXPECT_TRUE(run_lint("src/obs/x.cpp", "auto t = std::chrono::system_clock::now();\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// io.stray-stream
// ---------------------------------------------------------------------------

TEST(IoStrayStream, FlagsCoutAndPrintfInLibraryCode) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <cstdio>
    #include <iostream>
    void report(int n) {
      std::cout << n << "\n";
      printf("%d\n", n);
    }
  )cpp");
  EXPECT_TRUE(has_rule(findings, "io.stray-stream"));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(IoStrayStream, PassesOutsideLibraryAndForSnprintf) {
  // bench/ and examples/ are presentation code: stdout is their job.
  EXPECT_TRUE(run_lint("bench/x.cpp", "#include <iostream>\nvoid p() { std::cout << 1; }\n")
                  .empty());
  // String formatting is not I/O.
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include <cstdio>
    int fmt(char* buf, unsigned long n, double v) { return std::snprintf(buf, n, "%g", v); }
  )cpp")
                  .empty());
}

// ---------------------------------------------------------------------------
// obs.span-name / obs.metric-name
// ---------------------------------------------------------------------------

TEST(ObsSpanName, FlagsConventionViolationAndUnregisteredName) {
  const ObsRegistry reg = small_registry();
  EXPECT_TRUE(has_rule(run_lint("src/x/x.cpp", R"cpp(
    #include "obs/obs.hpp"
    void f() { vpga::obs::Span s("BadName"); }
  )cpp",
                                &reg),
                       "obs.span-name"));
  EXPECT_TRUE(has_rule(run_lint("src/x/x.cpp", R"cpp(
    #include "obs/obs.hpp"
    void f() { vpga::obs::Span s("stage.unheard_of"); }
  )cpp",
                                &reg),
                       "obs.span-name"));
}

TEST(ObsSpanName, PassesOnRegisteredAndDynamicNames) {
  const ObsRegistry reg = small_registry();
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include "obs/obs.hpp"
    #include <string>
    void f(const std::string& stage) {
      vpga::obs::Span s("stage.map");
      vpga::obs::Span t("verify." + stage);  // dynamic family: linter skips
    }
  )cpp",
                       &reg)
                  .empty());
}

TEST(ObsMetricName, FlagsConventionViolationAndUnregisteredName) {
  const ObsRegistry reg = small_registry();
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include "obs/obs.hpp"
    void f() {
      vpga::obs::count("Route_Nets");
      vpga::obs::observe("route.unheard_of", 1.0);
    }
  )cpp",
                                 &reg);
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_rule(findings, "obs.metric-name"));
}

TEST(ObsMetricName, PassesOnRegisteredNames) {
  const ObsRegistry reg = small_registry();
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include "obs/obs.hpp"
    void f() {
      vpga::obs::count("route.nets", 3);
      vpga::obs::gauge("pack.groups", 2.0);
    }
  )cpp",
                       &reg)
                  .empty());
}

TEST(ObsEventName, FlagsConventionViolationAndUnregisteredName) {
  const ObsRegistry reg = small_registry();
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include "obs/events.hpp"
    void f() {
      vpga::obs::flight_event("FlowBegin");
      vpga::obs::flight_event("flow.unheard_of", 7);
    }
  )cpp",
                                 &reg);
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_rule(findings, "obs.event-name"));
}

TEST(ObsEventName, PassesOnRegisteredAndDynamicNames) {
  const ObsRegistry reg = small_registry();
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include "obs/events.hpp"
    #include <string>
    void f(const std::string& which) {
      vpga::obs::flight_event("flow.begin");
      vpga::obs::flight_event("flow.seed", 42);
      vpga::obs::flight_event("flow." + which);  // dynamic family: linter skips
    }
  )cpp",
                       &reg)
                  .empty());
}

TEST(ObsRegistryParse, ReadsRealNamesHeader) {
  const auto names_path =
      std::filesystem::path(VPGA_REPO_ROOT) / "src" / "obs" / "names.hpp";
  const ObsRegistry reg = vpga::fabriclint::parse_obs_registry(read_file(names_path));
  EXPECT_TRUE(reg.spans.count("stage.map") > 0);
  EXPECT_TRUE(reg.spans.count("route.negotiate") > 0);
  EXPECT_TRUE(reg.metrics.count("route.ripups") > 0);
  EXPECT_TRUE(reg.metrics.count("verify.equiv.vectors") > 0);
  EXPECT_TRUE(reg.events.count("flow.seed") > 0);
  EXPECT_TRUE(reg.events.count("verify.abort") > 0);
  // Span names never leak into the metric set or vice versa.
  EXPECT_EQ(reg.metrics.count("stage.map"), 0u);
  EXPECT_EQ(reg.events.count("stage.map"), 0u);
}

// ---------------------------------------------------------------------------
// verify.rule-sync
// ---------------------------------------------------------------------------

TEST(VerifyRuleSync, FlagsBothDriftDirections) {
  const std::string header = R"cpp(
    constexpr const char* kRules[] = {"a.one", "a.two"};
  )cpp";
  const std::string docs = "| rule | meaning |\n|---|---|\n| `a.one` | ok |\n| `a.three` | ghost |\n";
  const auto findings =
      vpga::fabriclint::check_rule_sync("h.hpp", header, "d.md", docs);
  record(findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_rule(findings, "verify.rule-sync"));
}

TEST(VerifyRuleSync, PassesOnMatchingPair) {
  const std::string header = R"cpp(constexpr const char* kRules[] = {"a.one"};)cpp";
  const std::string docs = "| `a.one` | documented |\n";
  EXPECT_TRUE(vpga::fabriclint::check_rule_sync("h.hpp", header, "d.md", docs).empty());
}

TEST(VerifyRuleSync, RealVerifyCatalogueMatchesDocs) {
  const std::filesystem::path root(VPGA_REPO_ROOT);
  const auto findings = vpga::fabriclint::check_rule_sync(
      "src/verify/rules.hpp", read_file(root / "src" / "verify" / "rules.hpp"),
      "docs/VERIFY.md", read_file(root / "docs" / "VERIFY.md"));
  for (const Finding& f : findings) ADD_FAILURE() << f.file << ": " << f.message;
}

// docs/LINT.md's catalogue table stays in sync with catalogue.hpp (the
// verify.rule-sync-style guard for fabriclint's own rules).
TEST(VerifyRuleSync, LintCatalogueMatchesLintDocs) {
  const std::filesystem::path root(VPGA_REPO_ROOT);
  const auto findings = vpga::fabriclint::check_rule_sync(
      "tools/fabriclint/catalogue.hpp",
      read_file(root / "tools" / "fabriclint" / "catalogue.hpp"), "docs/LINT.md",
      read_file(root / "docs" / "LINT.md"));
  for (const Finding& f : findings) ADD_FAILURE() << f.file << ": " << f.message;
}

// ---------------------------------------------------------------------------
// hdr.self-contained
// ---------------------------------------------------------------------------

class TempHeader {
 public:
  explicit TempHeader(std::string_view content) {
    dir_ = std::filesystem::temp_directory_path() / "fabriclint_test_hdr";
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "fixture.hpp";
    std::ofstream(path_) << content;
  }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_, path_;
};

TEST(HdrSelfContained, FlagsHeaderMissingItsIncludes) {
  const TempHeader hdr("#pragma once\ninline std::string broken() { return {}; }\n");
  const auto findings = vpga::fabriclint::check_header_self_contained(
      hdr.path().string(), "src/fixture.hpp", hdr.dir().string(), VPGA_CXX_COMPILER);
  record(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hdr.self-contained");
}

TEST(HdrSelfContained, PassesOnSelfContainedHeader) {
  const TempHeader hdr("#pragma once\n#include <string>\ninline std::string ok() { return {}; }\n");
  EXPECT_TRUE(vpga::fabriclint::check_header_self_contained(
                  hdr.path().string(), "src/fixture.hpp", hdr.dir().string(), VPGA_CXX_COMPILER)
                  .empty());
}

// ---------------------------------------------------------------------------
// Suppressions / meta.bad-suppression
// ---------------------------------------------------------------------------

TEST(Suppression, DisableWithReasonSuppressesOwnLineAndNextCodeLine) {
  // Same line.
  EXPECT_TRUE(run_lint("src/x/x.cpp",
                       "#include <cstdio>\nvoid f() { printf(\"x\"); }  "
                       "// fabriclint: disable(io.stray-stream) -- test sink\n")
                  .empty());
  // Own line, applying past a continuation comment to the next code line.
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include <cstdio>
    void f() {
      // fabriclint: disable(io.stray-stream) -- the reason is long enough
      // to spill onto a second comment line before the code.
      printf("x");
    }
  )cpp")
                  .empty());
}

TEST(Suppression, DisableOnlySilencesTheNamedRule) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <cstdio>
    void f() {
      // fabriclint: disable(det.raw-rng) -- wrong rule for this line
      printf("x");
    }
  )cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io.stray-stream");
}

TEST(MetaBadSuppression, FlagsMissingReasonUnknownRuleAndGarbage) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    // fabriclint: disable(io.stray-stream)
    // fabriclint: disable(no.such-rule) -- reason present but rule unknown
    // fabriclint: frobnicate the linter
    int x = 0;
  )cpp");
  EXPECT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "meta.bad-suppression");
}

TEST(MetaBadSuppression, PassesOnWellFormedDirectives) {
  EXPECT_TRUE(run_lint("src/x/x.cpp", R"cpp(
    #include <cstdio>
    // fabriclint: disable(io.stray-stream) -- fixture demonstrating the form
    void f() { printf("x"); }
  )cpp")
                  .empty());
}

// ---------------------------------------------------------------------------
// Semantic engine: symbol table + call graph
// ---------------------------------------------------------------------------

TEST(CallGraph, DirectTransitiveAndRecursiveEdges) {
  std::vector<vpga::fabriclint::TuSymbols> tus;
  tus.push_back(vpga::fabriclint::analyze_tu("src/x/a.cpp", R"cpp(
    namespace x {
    int leaf() { return 1; }
    int mid() { return leaf(); }
    int top() { return mid(); }
    int self(int n) {
      if (n == 0) return 0;
      return self(n - 1);
    }
    int lonely() { return 2; }
    }  // namespace x
  )cpp"));
  const auto graph = vpga::fabriclint::build_call_graph(tus);
  const int leaf = graph.find("leaf");
  const int mid = graph.find("mid");
  const int top = graph.find("top");
  const int self = graph.find("self");
  const int lonely = graph.find("lonely");
  ASSERT_TRUE(leaf >= 0 && mid >= 0 && top >= 0 && self >= 0 && lonely >= 0);

  // Direct edge: top -> mid (and the reverse caller edge).
  ASSERT_EQ(graph.callees(top).size(), 1u);
  EXPECT_EQ(graph.callees(top)[0].to, mid);
  ASSERT_EQ(graph.callers(mid).size(), 1u);
  EXPECT_EQ(graph.callers(mid)[0].from, top);

  // Transitive reachability: top -> mid -> leaf, never the other way.
  EXPECT_TRUE(graph.reachable(top, leaf));
  EXPECT_FALSE(graph.reachable(leaf, top));
  EXPECT_FALSE(graph.reachable(top, lonely));

  // Recursive edge: self is on a cycle through itself.
  EXPECT_TRUE(graph.reachable(self, self));
  EXPECT_FALSE(graph.reachable(top, top));
}

TEST(CallGraph, QualifierResolvesAcrossTranslationUnits) {
  std::vector<vpga::fabriclint::TuSymbols> tus;
  tus.push_back(vpga::fabriclint::analyze_tu("src/x/a.cpp", R"cpp(
    class Packer {
     public:
      int run();
    };
    int Packer::run() { return 1; }
  )cpp"));
  tus.push_back(vpga::fabriclint::analyze_tu("src/x/b.cpp", R"cpp(
    class Router {
     public:
      int run() { return 2; }
    };
    int drive(Packer& p) { return p.run(); }
  )cpp"));
  const auto graph = vpga::fabriclint::build_call_graph(tus);
  const int drive = graph.find("drive");
  ASSERT_TRUE(drive >= 0);
  // p.run() is a member call with an unresolved receiver class in this
  // subset: both run() definitions stay candidates (over-approximation).
  EXPECT_TRUE(graph.reachable(drive, graph.find("Packer::run")));
  EXPECT_TRUE(graph.reachable(drive, graph.find("Router::run")));
  EXPECT_TRUE(graph.find("Packer::run") != graph.find("Router::run"));
}

// ---------------------------------------------------------------------------
// conc.unguarded-access
// ---------------------------------------------------------------------------

// The seeded-regression of the acceptance criteria: an unguarded write to a
// FABRIC_GUARDED_BY field of the *real* obs::MetricsRegistry header must be
// caught.
TEST(ConcUnguardedAccess, CatchesSeededUnguardedWriteInRealMetricsRegistry) {
  const std::filesystem::path root(VPGA_REPO_ROOT);
  const auto findings = run_project({
      {"src/obs/obs.hpp", read_file(root / "src" / "obs" / "obs.hpp")},
      {"src/obs/evil.cpp", R"cpp(
        #include "obs/obs.hpp"
        namespace vpga::obs {
        void MetricsRegistry::evil_reset() { counters_.clear(); }
        }  // namespace vpga::obs
      )cpp"},
  });
  ASSERT_TRUE(has_rule(findings, "conc.unguarded-access"));
  EXPECT_EQ(findings[0].file, "src/obs/evil.cpp");
  EXPECT_NE(findings[0].message.find("MetricsRegistry::counters_"), std::string::npos);
}

TEST(ConcUnguardedAccess, RealObsSubsystemIsClean) {
  const std::filesystem::path root(VPGA_REPO_ROOT);
  const auto findings = vpga::fabriclint::lint_project({
      {"src/obs/obs.hpp", read_file(root / "src" / "obs" / "obs.hpp")},
      {"src/obs/obs.cpp", read_file(root / "src" / "obs" / "obs.cpp")},
  });
  for (const Finding& f : findings)
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": " << f.message;
}

TEST(ConcUnguardedAccess, TransitiveCallersHoldingTheLockAreClean) {
  const char* kSource = R"cpp(
    #include <mutex>
    #include "common/concurrency.hpp"
    namespace x {
    class Cache {
     public:
      void refresh();
      void refresh_unsafe();
     private:
      void rebuild() { entries_ = 1; }  // callers must hold mu_
      std::mutex mu_;
      int entries_ FABRIC_GUARDED_BY(mu_) = 0;
    };
    void Cache::refresh() {
      const std::lock_guard<std::mutex> lock(mu_);
      rebuild();
    }
    }  // namespace x
  )cpp";
  EXPECT_TRUE(run_project({{"src/x/cache.cpp", kSource}}).empty());

  // The same helper with one caller that does NOT hold the lock: flagged.
  const auto findings = run_project({{"src/x/cache.cpp", kSource},
                                     {"src/x/bad.cpp", R"cpp(
    namespace x {
    void Cache::refresh_unsafe() { rebuild(); }
    }  // namespace x
  )cpp"}});
  ASSERT_TRUE(has_rule(findings, "conc.unguarded-access"));
  EXPECT_NE(findings[0].message.find("Cache::entries_"), std::string::npos);
}

TEST(ConcUnguardedAccess, TypedLocalAccessRequiresTheLock) {
  // Free functions reach guarded state through a typed local: the unlocked
  // variant is flagged, the locked one is not.
  const auto findings = run_project({{"src/x/tally.cpp", R"cpp(
    #include <mutex>
    #include "common/concurrency.hpp"
    namespace x {
    struct Tally {
      std::mutex mu;
      long long runs FABRIC_GUARDED_BY(mu) = 0;
    };
    Tally& storage() {
      static Tally t;
      return t;
    }
    void bump_unlocked() {
      Tally& t = storage();
      ++t.runs;
    }
    void bump_locked() {
      Tally& t = storage();
      const std::lock_guard<std::mutex> lock(t.mu);
      ++t.runs;
    }
    }  // namespace x
  )cpp"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "conc.unguarded-access");
  EXPECT_NE(findings[0].message.find("bump_unlocked"), std::string::npos);
}

TEST(ConcUnguardedAccess, SuppressionDirectiveSilences) {
  EXPECT_TRUE(run_project({{"src/x/init.cpp", R"cpp(
    #include <mutex>
    #include "common/concurrency.hpp"
    namespace x {
    class Cache {
     public:
      void init() {
        // fabriclint: disable(conc.unguarded-access) -- single-threaded init
        entries_ = 0;
      }
     private:
      std::mutex mu_;
      int entries_ FABRIC_GUARDED_BY(mu_) = 0;
    };
    }  // namespace x
  )cpp"}})
                  .empty());
}

// ---------------------------------------------------------------------------
// conc.lock-order
// ---------------------------------------------------------------------------

TEST(ConcLockOrder, FlagsInconsistentTwoMutexOrder) {
  const auto findings = run_project({{"src/x/deadlock.cpp", R"cpp(
    #include <mutex>
    namespace x {
    std::mutex job_mu;
    std::mutex log_mu;
    void submit() {
      const std::lock_guard<std::mutex> a(job_mu);
      const std::lock_guard<std::mutex> b(log_mu);
    }
    void flush() {
      const std::lock_guard<std::mutex> b(log_mu);
      const std::lock_guard<std::mutex> a(job_mu);
    }
    }  // namespace x
  )cpp"}});
  ASSERT_TRUE(has_rule(findings, "conc.lock-order"));
  EXPECT_NE(findings[0].message.find("job_mu"), std::string::npos);
  EXPECT_NE(findings[0].message.find("log_mu"), std::string::npos);
}

TEST(ConcLockOrder, FlagsOrderInversionThroughCallee) {
  const auto findings = run_project({{"src/x/deadlock2.cpp", R"cpp(
    #include <mutex>
    namespace x {
    std::mutex job_mu;
    std::mutex log_mu;
    void take_job() { const std::lock_guard<std::mutex> a(job_mu); }
    void forward() {
      const std::lock_guard<std::mutex> b(log_mu);
      take_job();
    }
    void direct() {
      const std::lock_guard<std::mutex> a(job_mu);
      const std::lock_guard<std::mutex> b(log_mu);
    }
    }  // namespace x
  )cpp"}});
  EXPECT_TRUE(has_rule(findings, "conc.lock-order"));
}

TEST(ConcLockOrder, ConsistentOrderIsClean) {
  EXPECT_TRUE(run_project({{"src/x/ordered.cpp", R"cpp(
    #include <mutex>
    namespace x {
    std::mutex job_mu;
    std::mutex log_mu;
    void submit() {
      const std::lock_guard<std::mutex> a(job_mu);
      const std::lock_guard<std::mutex> b(log_mu);
    }
    void drain() {
      const std::lock_guard<std::mutex> a(job_mu);
      const std::lock_guard<std::mutex> b(log_mu);
    }
    }  // namespace x
  )cpp"}})
                  .empty());
}

// ---------------------------------------------------------------------------
// conc.unjoined-thread
// ---------------------------------------------------------------------------

TEST(ConcUnjoinedThread, FlagsThreadWithoutJoinOrDetach) {
  const auto findings = run_project({{"src/x/spawn.cpp", R"cpp(
    #include <thread>
    namespace x {
    void fire_and_forget() {
      std::thread worker([] { });
    }
    }  // namespace x
  )cpp"}});
  ASSERT_TRUE(has_rule(findings, "conc.unjoined-thread"));
  EXPECT_NE(findings[0].message.find("worker"), std::string::npos);
}

TEST(ConcUnjoinedThread, JoinedDetachedAndMovedThreadsAreClean) {
  EXPECT_TRUE(run_project({{"src/x/spawn.cpp", R"cpp(
    #include <thread>
    #include <utility>
    #include <vector>
    namespace x {
    void joined() {
      std::thread worker([] { });
      worker.join();
    }
    void detached() {
      std::thread background([] { });
      background.detach();
    }
    void moved(std::vector<std::thread>& pool) {
      std::thread handoff([] { });
      pool.push_back(std::move(handoff));
    }
    }  // namespace x
  )cpp"}})
                  .empty());
}

// ---------------------------------------------------------------------------
// flow.dropped-report
// ---------------------------------------------------------------------------

TEST(FlowDroppedReport, FlagsDiscardedVerifyReport) {
  const auto findings = run_project({{"src/x/drop.cpp", R"cpp(
    namespace x {
    struct VerifyReport {
      int errors = 0;
    };
    VerifyReport check_stage();
    void run() {
      check_stage();
    }
    }  // namespace x
  )cpp"}});
  ASSERT_TRUE(has_rule(findings, "flow.dropped-report"));
  EXPECT_NE(findings[0].message.find("check_stage"), std::string::npos);
}

TEST(FlowDroppedReport, ConsumedOrEnforcedReportsAreClean) {
  EXPECT_TRUE(run_project({{"src/x/consume.cpp", R"cpp(
    namespace x {
    struct VerifyReport {
      int errors = 0;
    };
    VerifyReport check_stage();
    void enforce(const VerifyReport& report);
    int run() {
      const VerifyReport rep = check_stage();
      enforce(check_stage());
      return rep.errors;
    }
    }  // namespace x
  )cpp"}})
                  .empty());
}

// ---------------------------------------------------------------------------
// det.float-accum
// ---------------------------------------------------------------------------

TEST(DetFloatAccum, FlagsSharedFloatAccumulationInThreadLambda) {
  const auto findings = run_project({{"src/x/reduce.cpp", R"cpp(
    #include <thread>
    namespace x {
    double race_sum() {
      double total = 0.0;
      std::thread worker([&] { total += 1.5; });
      worker.join();
      return total;
    }
    }  // namespace x
  )cpp"}});
  ASSERT_TRUE(has_rule(findings, "det.float-accum"));
  EXPECT_NE(findings[0].message.find("total"), std::string::npos);
}

TEST(DetFloatAccum, PerThreadSlotsAndSerialAccumulationAreClean) {
  EXPECT_TRUE(run_project({{"src/x/reduce.cpp", R"cpp(
    #include <thread>
    namespace x {
    void sink(double value);
    double fixed_order_sum() {
      double total = 0.0;
      std::thread worker([&] {
        double local = 0.0;
        local += 1.5;
        sink(local);
      });
      worker.join();
      total += 2.5;  // serial accumulation outside the region is fine
      return total;
    }
    }  // namespace x
  )cpp"}})
                  .empty());
}

// ---------------------------------------------------------------------------
// io.stray-stream — transitive reach through the call graph
// ---------------------------------------------------------------------------

TEST(IoStrayStreamTransitive, FlagsLibraryCodeReachingStdioThroughCallee) {
  const auto findings = run_project({{"src/x/report.cpp", R"cpp(
    #include <cstdio>
    namespace x {
    void emit(int n) { printf("%d", n); }
    void drive() { emit(3); }
    }  // namespace x
  )cpp"}});
  ASSERT_TRUE(has_rule(findings, "io.stray-stream"));
  bool found_transitive = false;
  for (const Finding& f : findings)
    if (f.message.find("transitively") != std::string::npos &&
        f.message.find("'drive'") != std::string::npos)
      found_transitive = true;
  EXPECT_TRUE(found_transitive);
}

TEST(IoStrayStreamTransitive, SuppressedSinksDoNotPropagate) {
  // A documented sink (suppressed direct use) is a sanctioned boundary:
  // callers reaching it are not tainted.
  EXPECT_TRUE(run_project({{"src/x/report.cpp", R"cpp(
    #include <cstdio>
    namespace x {
    void emit(int n) {
      // fabriclint: disable(io.stray-stream) -- documented abort-path sink
      printf("%d", n);
    }
    void drive() { emit(3); }
    }  // namespace x
  )cpp"}})
                  .empty());
}

// ---------------------------------------------------------------------------
// Dataflow layer (fabriclint v3): loop recovery
// ---------------------------------------------------------------------------

const vpga::fabriclint::FunctionInfo* find_fn(const vpga::fabriclint::TuSymbols& tu,
                                              std::string_view name) {
  for (const auto& fn : tu.functions)
    if (fn.name == name && fn.is_definition) return &fn;
  return nullptr;
}

TEST(Dataflow, RecoversLoopStructureWithNestingAndRangeExpr) {
  const auto tu = vpga::fabriclint::analyze_tu("src/x/x.cpp", R"cpp(
    #include <vector>
    int f(int n, const std::vector<int>& vals) {
      int s = 0;
      for (int i = 0; i < n; ++i) {
        while (s < n) { ++s; }
      }
      do { --n; } while (n > 0);
      for (int v : vals) s += v;
      for (int v : vals) for (int i = 0; i < n; ++i) { n += v; }
      return s;
    }
  )cpp");
  const auto* fn = find_fn(tu, "f");
  ASSERT_NE(fn, nullptr);
  const auto df = vpga::fabriclint::analyze_dataflow(tu, *fn);
  ASSERT_EQ(df.loops.size(), 6u);
  // Token order: for, the while nested in its body, do-while, range-fors.
  EXPECT_LT(df.loops[0].body_begin, df.loops[1].header_tok);
  EXPECT_LT(df.loops[1].body_end, df.loops[0].body_end);
  EXPECT_FALSE(df.loops[0].range_for);
  EXPECT_TRUE(df.loops[3].range_for);
  EXPECT_EQ(df.loops[3].range_expr, "vals");
  // A brace-less body that is itself a loop ends where that loop's block
  // ends, not at the next `;` (here the return statement's).
  EXPECT_TRUE(df.loops[4].range_for);
  EXPECT_EQ(df.loops[4].body_end, df.loops[5].body_end);
}

// ---------------------------------------------------------------------------
// lifetime.dangling-local
// ---------------------------------------------------------------------------

TEST(LifetimeDanglingLocal, FlagsReferenceToLocal) {
  const auto findings = run_project({{"src/x/x.cpp", R"cpp(
    #include <string>
    namespace vpga {
    const std::string& name() {
      std::string s = "x";
      return s;
    }
    }
  )cpp"}});
  EXPECT_TRUE(has_rule(findings, "lifetime.dangling-local"));
}

TEST(LifetimeDanglingLocal, StaticLocalAndByValueReturnAreClean) {
  const auto findings = run_project({{"src/x/x.cpp", R"cpp(
    #include <string>
    namespace vpga {
    const std::string& cached() {
      static std::string s = "x";
      return s;
    }
    std::string copied() {
      std::string s = "x";
      return s;
    }
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(findings, "lifetime.dangling-local"));
}

// ---------------------------------------------------------------------------
// det.iter-invalidation
// ---------------------------------------------------------------------------

TEST(DetIterInvalidation, FlagsMutationOfIteratedContainer) {
  const auto findings = run_project({{"src/x/x.cpp", R"cpp(
    #include <vector>
    namespace vpga {
    void mirror(std::vector<int>& xs) {
      for (int x : xs) {
        if (x > 0) xs.push_back(-x);
      }
    }
    }
  )cpp"}});
  EXPECT_TRUE(has_rule(findings, "det.iter-invalidation"));
}

TEST(DetIterInvalidation, MutatingAnotherContainerIsClean) {
  const auto findings = run_project({{"src/x/x.cpp", R"cpp(
    #include <vector>
    namespace vpga {
    void mirror(const std::vector<int>& xs, std::vector<int>& out) {
      out.reserve(xs.size());
      for (int x : xs) out.push_back(-x);
    }
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(findings, "det.iter-invalidation"));
}

TEST(DetIterInvalidation, MutationAfterBracelessNestedLoopIsClean) {
  const auto findings = run_project({{"src/x/x.cpp", R"cpp(
    #include <vector>
    namespace vpga {
    int grow(std::vector<int>& vals, int n) {
      for (int v : vals) for (int i = 0; i < n; ++i) { n += v; }
      vals.push_back(n);
      return n;
    }
    }
  )cpp"}});
  EXPECT_FALSE(has_rule(findings, "det.iter-invalidation"));
}

// ---------------------------------------------------------------------------
// Real-tree semantic cleanliness (the lint gate the fabriclint ctest also
// enforces, kept here so a unit-test run catches regressions without the CLI)
// ---------------------------------------------------------------------------

TEST(SemanticEngine, RealGuardedSubsystemsLintClean) {
  const std::filesystem::path root(VPGA_REPO_ROOT);
  std::vector<SourceFile> files;
  for (const char* rel : {"src/obs/obs.hpp", "src/obs/obs.cpp", "src/flow/flow.hpp",
                          "src/flow/flow.cpp", "src/pack/packer.hpp",
                          "src/pack/packer.cpp", "src/verify/stage.hpp",
                          "src/verify/stage.cpp", "src/verify/verify.hpp",
                          "src/verify/verify.cpp"}) {
    files.push_back({rel, read_file(root / rel)});
  }
  for (const Finding& f : vpga::fabriclint::lint_project(files))
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": " << f.message;
}

// ---------------------------------------------------------------------------
// JSON output round-trip
// ---------------------------------------------------------------------------

TEST(JsonOutput, RoundTripsThroughBundledParser) {
  const auto findings = run_lint("src/x/x.cpp", R"cpp(
    #include <cstdio>
    void f() { printf("quote \" and backslash \\ in message context"); }
  )cpp");
  ASSERT_FALSE(findings.empty());
  const std::string doc = vpga::fabriclint::findings_json(findings);

  vpga::obs::json::Value parsed;
  std::string error;
  ASSERT_TRUE(vpga::obs::json::parse(doc, parsed, &error)) << error;
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.find("schema")->string, "vpga.fabriclint.v4");
  // Without an elapsed time the footer is omitted entirely.
  EXPECT_EQ(parsed.find("elapsed_ms"), nullptr);
  EXPECT_EQ(static_cast<std::size_t>(parsed.find("total")->number), findings.size());
  const auto* arr = parsed.find("findings");
  ASSERT_TRUE(arr != nullptr && arr->is_array());
  ASSERT_EQ(arr->array.size(), findings.size());
  const auto& first = arr->array[0];
  EXPECT_EQ(first.find("file")->string, findings[0].file);
  EXPECT_EQ(static_cast<int>(first.find("line")->number), findings[0].line);
  EXPECT_EQ(first.find("rule")->string, findings[0].rule);
  EXPECT_EQ(first.find("message")->string, findings[0].message);
  EXPECT_EQ(first.object.size(), 4u);  // file, line, rule, message
}

TEST(JsonOutput, EmptyFindingsIsValidDocument) {
  vpga::obs::json::Value parsed;
  ASSERT_TRUE(vpga::obs::json::parse(vpga::fabriclint::findings_json({}), parsed, nullptr));
  EXPECT_EQ(parsed.find("total")->number, 0.0);
  EXPECT_TRUE(parsed.find("findings")->is_array());
}

TEST(JsonOutput, ElapsedMsFooterRoundTrips) {
  vpga::obs::json::Value parsed;
  ASSERT_TRUE(
      vpga::obs::json::parse(vpga::fabriclint::findings_json({}, 1234), parsed, nullptr));
  ASSERT_NE(parsed.find("elapsed_ms"), nullptr);
  EXPECT_EQ(parsed.find("elapsed_ms")->number, 1234.0);
}

// ---------------------------------------------------------------------------
// Catalogue coverage (must run last: gtest preserves file order per suite
// name, so give it a name that sorts the intent, and rely on the fixtures
// above all having executed in this binary).
// ---------------------------------------------------------------------------

TEST(ZLintCatalogue, EveryRuleHasFixtures) {
  for (std::string_view rule : vpga::fabriclint::kLintCatalogue) {
    EXPECT_TRUE(fired_registry().count(std::string(rule)) > 0)
        << "rule " << rule << " is catalogued but no fixture in "
        << "test_fabriclint.cpp triggered it";
  }
  for (const std::string& rule : fired_registry()) {
    EXPECT_TRUE(vpga::fabriclint::known_rule(rule))
        << "fixtures fired rule " << rule << " which is not in kLintCatalogue";
  }
}

}  // namespace

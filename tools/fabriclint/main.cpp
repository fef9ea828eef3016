/// \file main.cpp
/// fabriclint CLI — walks the tree, runs every rule, prints findings as
/// file:line: rule: message, optionally emits the JSON findings document,
/// and exits nonzero on any unsuppressed finding (docs/LINT.md).
///
/// Usage:
///   fabriclint [--root DIR] [--json FILE|-] [--headers [COMPILER]]
///              [--only PREFIX] [--jobs N] [--max-elapsed-ms N] [DIR...]
///
/// DIR... are lint roots relative to --root (default: src bench examples).
/// Per-file token rules run on a worker pool (--jobs, default hardware
/// concurrency clamped to the file count); findings are merged in file order
/// and sorted, so output is byte-stable regardless of scheduling. The
/// semantic pass (symbol tables, call graph, dataflow, conc.*/flow.*/
/// lifetime.* rules) then runs over src/ as one project, on the same pool.
/// --only keeps only findings whose rule id starts with PREFIX (e.g.
/// `--only conc.` for CI's static-race cross-check). --headers additionally
/// compiles every src/**/*.hpp standalone (hdr.self-contained); the same
/// property is enforced at build time by the vpga_header_selfcheck target,
/// so CI's fabriclint job runs without it. --max-elapsed-ms makes the linter
/// fail its own runtime budget (the fabriclint ctest passes a generous cap so
/// a pathological slowdown of the linter itself fails CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fabriclint.hpp"

namespace {

namespace fs = std::filesystem;
using vpga::fabriclint::Finding;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string rel_slash(const fs::path& p, const fs::path& root) {
  std::string s = p.lexically_relative(root).generic_string();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  fs::path root = ".";
  std::string json_out;
  bool headers = false;
  std::string compiler = "c++";
  std::string only_prefix;
  long long max_elapsed_ms = -1;
  std::size_t jobs = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::string> dirs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      only_prefix = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::max(1ul, std::stoul(argv[++i]));
    } else if (arg == "--max-elapsed-ms" && i + 1 < argc) {
      max_elapsed_ms = std::stoll(argv[++i]);
    } else if (arg == "--headers") {
      headers = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') compiler = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: fabriclint [--root DIR] [--json FILE|-] [--headers [CXX]] "
                   "[--only PREFIX] [--jobs N] [--max-elapsed-ms N] [DIR...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "fabriclint: unknown option " << arg << "\n";
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "bench", "examples"};

  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "fabriclint: bad --root: " << ec.message() << "\n";
    return 2;
  }

  // The obs name registry (absence is tolerated: convention checks still run).
  vpga::fabriclint::ObsRegistry registry;
  const fs::path names = root / "src" / "obs" / "names.hpp";
  if (fs::exists(names)) registry = vpga::fabriclint::parse_obs_registry(read_file(names));

  // Deterministic file order regardless of directory enumeration order.
  std::vector<fs::path> files;
  for (const std::string& d : dirs) {
    const fs::path base = root / d;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base); it != fs::recursive_directory_iterator();
         ++it) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());

  // Contents are read once and shared by the token pass and the semantic
  // pass.
  std::vector<vpga::fabriclint::SourceFile> sources(files.size());
  for (std::size_t i = 0; i < files.size(); ++i)
    sources[i] = {rel_slash(files[i], root), read_file(files[i])};

  // Per-file token rules on a worker pool; results land in per-file slots and
  // are merged in file order, so output is identical to a serial run.
  std::vector<std::vector<Finding>> per_file(files.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const std::size_t nworkers = std::min(jobs, std::max<std::size_t>(1, files.size()));
  workers.reserve(nworkers);
  for (std::size_t w = 0; w < nworkers; ++w)
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < sources.size(); i = next.fetch_add(1))
        per_file[i] = vpga::fabriclint::lint_source(sources[i].rel_path,
                                                    sources[i].content, &registry);
    });
  for (std::thread& w : workers) w.join();

  std::vector<Finding> findings;
  for (const auto& file_findings : per_file)
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());

  // Semantic pass: src/ only — library code is where the lock-discipline and
  // report-flow contracts live.
  std::vector<vpga::fabriclint::SourceFile> lib_sources;
  for (const auto& s : sources)
    if (s.rel_path.rfind("src/", 0) == 0) lib_sources.push_back(s);
  if (!lib_sources.empty()) {
    vpga::fabriclint::ProjectOptions popts;
    popts.jobs = nworkers;
    auto sem = vpga::fabriclint::lint_project(lib_sources, popts);
    findings.insert(findings.end(), sem.begin(), sem.end());
  }

  // Tree-level rule/doc sync: the verify catalogue and fabriclint's own.
  const std::pair<const char*, const char*> sync_pairs[] = {
      {"src/verify/rules.hpp", "docs/VERIFY.md"},
      {"tools/fabriclint/catalogue.hpp", "docs/LINT.md"},
  };
  for (const auto& [hdr, doc] : sync_pairs) {
    const fs::path hp = root / hdr, dp = root / doc;
    if (!fs::exists(hp) || !fs::exists(dp)) {
      findings.push_back({hdr, 1, "verify.rule-sync",
                          std::string("missing ") + (fs::exists(hp) ? doc : hdr) +
                              " — catalogue/docs pair incomplete"});
      continue;
    }
    auto sync = vpga::fabriclint::check_rule_sync(hdr, read_file(hp), doc, read_file(dp));
    findings.insert(findings.end(), sync.begin(), sync.end());
  }

  if (headers) {
    const fs::path src = root / "src";
    for (const fs::path& f : files) {
      if (f.extension() != ".hpp") continue;
      const std::string rel = rel_slash(f, root);
      if (rel.rfind("src/", 0) != 0) continue;
      auto hdr_findings = vpga::fabriclint::check_header_self_contained(
          f.string(), rel, src.string(), compiler);
      findings.insert(findings.end(), hdr_findings.begin(), hdr_findings.end());
    }
  }

  if (!only_prefix.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return f.rule.rfind(only_prefix, 0) != 0;
                                  }),
                   findings.end());
  }

  vpga::fabriclint::sort_findings(findings);
  for (const Finding& f : findings)
    std::cerr << f.file << ":" << f.line << ": " << f.rule << ": " << f.message << "\n";

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (!json_out.empty()) {
    const std::string doc = vpga::fabriclint::findings_json(findings, elapsed);
    if (json_out == "-") {
      std::cout << doc << "\n";
    } else {
      std::ofstream out(json_out, std::ios::binary);
      out << doc << "\n";
    }
  }

  if (max_elapsed_ms >= 0 && elapsed > max_elapsed_ms) {
    std::cerr << "fabriclint: runtime budget exceeded (" << elapsed << " ms > "
              << max_elapsed_ms << " ms)\n";
    return 1;
  }
  if (findings.empty()) {
    std::cerr << "fabriclint: clean (" << files.size() << " files, " << elapsed
              << " ms)\n";
    return 0;
  }
  std::cerr << "fabriclint: " << findings.size() << " finding(s)\n";
  return 1;
}

// Shared helpers for the experiment harness binaries.
//
// Every bench prints aligned predicted-vs-measured tables (fl::util::Table)
// and accepts --quick (smaller sweeps) plus --csv / --json (machine-readable
// dumps) and --seed; any other flag must be declared by the caller or the
// binary exits with an error naming it. The experiment ids (E1..E10) are
// indexed in docs/EXPERIMENTS.md; the binaries themselves live in bench/.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fl::bench {

struct Env {
  bool quick = false;
  bool csv = false;
  bool json = false;
  std::uint64_t seed = 1;

  /// Parse the common flags; `extra` names the caller's own flags (without
  /// the leading "--"). Any other flag throws util::ContractViolation.
  static Env parse(int argc, const char* const* argv,
                   std::vector<std::string> extra = {}) {
    util::Options opt(argc, argv);
    extra.insert(extra.end(), {"quick", "csv", "json", "seed"});
    opt.reject_unknown(extra);
    Env env;
    env.quick = opt.get_bool("quick", false);
    env.csv = opt.get_bool("csv", false);
    env.json = opt.get_bool("json", false);
    env.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    return env;
  }

  /// Render one result table in the selected format. With --json each
  /// table becomes one JSON object on stdout (concatenated JSON /
  /// JSON-lines style when a bench emits several tables), keyed by its
  /// title — the machine-readable record the per-PR BENCH_*.json
  /// trajectory snapshots consume; every bench binary routes through here.
  void emit(const util::Table& table, const std::string& title) const {
    if (json) {
      table.print_json(std::cout, title);
    } else if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout, title);
      std::cout << '\n';
    }
  }
};

inline std::string ratio_cell(double measured, double predicted) {
  if (predicted <= 0.0) return "-";
  return util::fixed(measured / predicted, 3);
}

}  // namespace fl::bench

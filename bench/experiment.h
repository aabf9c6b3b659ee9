// Declarative experiment registry for the pieces_bench driver. Each paper
// table/figure registers one Experiment (name, figure tag, title, the
// paper claim it reproduces, and a Run body) at static-init time; the
// driver enumerates, filters and runs them against a shared Context that
// carries the ResultSink and the scale knobs (so the same experiments run
// at paper-shaped scale or at smoke scale in CI/tests).
#ifndef PIECES_BENCH_EXPERIMENT_H_
#define PIECES_BENCH_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/report.h"

namespace pieces::bench {

struct Context {
  ResultSink& sink;
  // Dataset-size baseline: the paper's 200M stand-in (default 200k;
  // --keys=200000·k scales it by k, and the smoke path shrinks it).
  size_t base_keys = 200'000;
  // Op-stream length baseline; experiments that historically used a
  // fraction/multiple of 200k ops scale off this.
  size_t ops = 200'000;
  // Executor defaults (overridable per experiment).
  size_t warmup_ops = 0;
  size_t repeats = 1;
  // Thread ceiling for the multi-threaded experiments.
  size_t max_threads = 4;
  // Time-based run mode (--duration): when > 0, measured passes replay
  // the op stream in a loop for this long instead of exactly `ops` times;
  // mutually exclusive with --ops at the CLI.
  double duration_seconds = 0;
  // Multi-get width (--batch): read-only phases route through
  // ViperStore::GetBatch in groups of this many keys. 1 = single-key Gets.
  size_t batch = 1;
  // Writable directory for disk-backend page files (--data-dir; the
  // driver guarantees it exists and is writable, and removes it on exit
  // when it created the default temp dir itself).
  std::string data_dir = "/tmp";
};

struct Experiment {
  std::string name;    // CLI id, e.g. "fig10"
  std::string figure;  // paper tag, e.g. "Fig. 10"
  std::string title;   // human table title
  std::string claim;   // the paper claim the experiment reproduces
  std::function<void(Context&)> run;
};

// Registration happens from static initializers in each experiment
// translation unit via PIECES_REGISTER_EXPERIMENT.
struct ExperimentRegistrar {
  explicit ExperimentRegistrar(Experiment e);
};

// Registered experiments in registration (link) order.
const std::vector<Experiment>& AllExperiments();
// Returns nullptr when no experiment has that name.
const Experiment* FindExperiment(const std::string& name);
std::vector<std::string> ExperimentNames();

#define PIECES_REGISTER_EXPERIMENT(ident, name, figure, title, claim, fn) \
  static const ::pieces::bench::ExperimentRegistrar ident##_registrar{    \
      ::pieces::bench::Experiment{name, figure, title, claim, fn}};

}  // namespace pieces::bench

#endif  // PIECES_BENCH_EXPERIMENT_H_

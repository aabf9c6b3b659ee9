// pieces_bench: the single declarative experiment driver. Every paper
// table/figure is a registered experiment (see experiment.h); this binary
// enumerates, filters and runs them, rendering human tables and/or
// machine-readable JSONL/CSV through a shared ResultSink.
//
//   pieces_bench --list
//   pieces_bench --experiment=fig10,fig15 --format=json --out=results/
//   pieces_bench --smoke --format=json,csv --out=results/
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment.h"
#include "common/cli.h"
#include "common/report.h"

namespace pieces::bench {
namespace {

constexpr const char* kUsage = R"(pieces_bench — declarative experiment driver

Usage: pieces_bench [flags]
  --list                 list registered experiments and exit
  --experiment=a,b,...   run only the named experiments (default: all)
  --format=table,json,csv  output formats (default: table)
  --out=DIR              write json/csv to DIR/<experiment>.{jsonl,csv}
                         (default: stdout)
  --keys=N               dataset-size baseline (default: 200000)
  --ops=N                op-stream length baseline (default: 200000)
  --duration=SECONDS     time-based mode: measured passes loop over the op
                         stream for SECONDS instead of one traversal
                         (mutually exclusive with --ops)
  --batch=N              multi-get width: read-only phases issue GetBatch
                         calls of N keys (default 1 = single-key Gets)
  --warmup=N             untimed warmup ops before each measured run (default 0)
  --repeats=N            measured repetitions, throughput averaged (default 1)
  --threads=N            thread ceiling for multi-threaded experiments
                         (default: 4)
  --data-dir=PATH        writable directory for disk-backend page files
                         (default: a per-run temp directory removed on exit)
  --smoke                tiny-scale preset (keys=4096 ops=2000) for CI smoke
  --help                 this text

Env knobs: PIECES_NVM_READ_NS, PIECES_NVM_WRITE_NS (injected medium
latency; see README.md).
)";

const std::vector<std::string> kKnownFlags = {
    "list",     "experiment", "format",  "out",     "keys",  "ops",
    "duration", "batch",      "warmup",  "repeats", "threads", "smoke",
    "data-dir", "help"};

int Main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  for (const std::string& name : flags.Names()) {
    bool known = false;
    for (const std::string& k : kKnownFlags) known = known || k == name;
    if (!known) {
      std::fprintf(stderr, "pieces_bench: unknown flag --%s\n%s",
                   name.c_str(), kUsage);
      return 2;
    }
  }
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "pieces_bench: unexpected argument '%s'\n%s",
                 flags.positional()[0].c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (flags.GetBool("list")) {
    std::printf("%-18s %-12s %s\n", "name", "figure", "title");
    for (const Experiment& e : AllExperiments()) {
      std::printf("%-18s %-12s %s\n", e.name.c_str(), e.figure.c_str(),
                  e.title.c_str());
    }
    return 0;
  }

  ResultSink::Options sink_opts;
  sink_opts.table = false;
  for (const std::string& fmt : flags.Has("format")
                                    ? flags.GetList("format")
                                    : std::vector<std::string>{"table"}) {
    if (fmt == "table") {
      sink_opts.table = true;
    } else if (fmt == "json" || fmt == "jsonl") {
      sink_opts.json = true;
    } else if (fmt == "csv") {
      sink_opts.csv = true;
    } else {
      std::fprintf(stderr,
                   "pieces_bench: unknown format '%s' "
                   "(expected table, json or csv)\n",
                   fmt.c_str());
      return 2;
    }
  }
  sink_opts.out_dir = flags.GetString("out");

  const bool smoke = flags.GetBool("smoke");
  ResultSink sink(sink_opts);
  Context ctx{sink};
  ctx.base_keys = flags.GetU64("keys", smoke ? 4096 : 200'000);
  ctx.ops = flags.GetU64("ops", smoke ? 2000 : 200'000);
  flags.CheckMutuallyExclusive("ops", "duration");
  ctx.duration_seconds =
      static_cast<double>(flags.GetU64("duration", 0));
  ctx.batch = flags.GetU64("batch", 1);
  if (flags.Has("batch") && ctx.batch < 1) {
    std::fprintf(stderr, "pieces_bench: --batch must be >= 1\n");
    return 2;
  }
  ctx.warmup_ops = flags.GetU64("warmup", 0);
  ctx.repeats = flags.GetU64("repeats", 1);
  ctx.max_threads = flags.GetU64("threads", 4);

  // Disk-backend data directory: the flag, else a per-run temp dir (which
  // we create now and remove on exit — the page stores unlink their own
  // files). The probe catches an unwritable path up front with a clear
  // error instead of an abort deep inside shard construction.
  std::string data_dir = flags.GetString("data-dir");
  bool created_data_dir = false;
  if (data_dir.empty()) {
    data_dir = "/tmp/pieces_bench_data." + std::to_string(::getpid());
    created_data_dir = ::mkdir(data_dir.c_str(), 0755) == 0;
  } else {
    ::mkdir(data_dir.c_str(), 0755);  // best effort; EEXIST is fine
  }
  {
    const std::string probe = data_dir + "/.pieces_write_probe";
    std::FILE* f = std::fopen(probe.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "pieces_bench: data dir '%s' is not writable "
                   "(--data-dir must name a writable directory)\n",
                   data_dir.c_str());
      return 2;
    }
    std::fclose(f);
    std::remove(probe.c_str());
  }
  ctx.data_dir = data_dir;

  if (!flags.errors().empty()) {
    for (const std::string& err : flags.errors()) {
      std::fprintf(stderr, "pieces_bench: %s\n", err.c_str());
    }
    return 2;
  }

  std::vector<const Experiment*> selected;
  if (!flags.Has("experiment") ||
      flags.GetString("experiment") == "all") {
    for (const Experiment& e : AllExperiments()) selected.push_back(&e);
  } else {
    for (const std::string& name : flags.GetList("experiment")) {
      const Experiment* e = FindExperiment(name);
      if (e == nullptr) {
        std::fprintf(stderr,
                     "pieces_bench: unknown experiment '%s' "
                     "(--list shows the registered names)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(e);
    }
  }

  for (const Experiment* e : selected) {
    std::fprintf(stderr, "[pieces_bench] running %s (%s)...\n",
                 e->name.c_str(), e->figure.c_str());
    sink.BeginExperiment(e->name, e->figure, e->title, e->claim);
    e->run(ctx);
    sink.EndExperiment();
  }
  // Stores unlink their page files; drop the temp dir only if we made it.
  if (created_data_dir) ::rmdir(data_dir.c_str());
  return 0;
}

}  // namespace
}  // namespace pieces::bench

int main(int argc, char** argv) { return pieces::bench::Main(argc, argv); }

// araxl — the experiment-driver CLI.
//
//   araxl list-kernels
//   araxl run   --kernel fdotproduct --config araxl:64 --bpl 512
//   araxl sweep --fig6 --workers 8 --json fig6.json --csv fig6.csv
//   araxl sweep --fig6 --shard 2/4 --json shard2.json      # one of 4 hosts
//   araxl merge --json fig6.json shard1.json ... shard4.json
//   araxl cache stats
//
// Sweeps expand a config grid x kernel list x bytes-per-lane grid into
// independent jobs and execute them on a worker pool (see src/driver/).
// Reports are deterministic: the same sweep yields byte-identical JSON/CSV
// for any worker count, shard split, or cache state. Results persist in a
// JSONL store (src/store/) keyed by (config, kernel, B/lane, seed, build
// version), so re-running a sweep only simulates missing jobs; `--shard
// i/N` + `araxl merge` distribute one sweep over many processes/hosts.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/analysis.hpp"
#include "common/contracts.hpp"
#include "common/faults.hpp"
#include "common/fmt.hpp"
#include "common/table.hpp"
#include "common/ticker.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "ppa/freq_model.hpp"
#include "serve/ledger.hpp"
#include "serve/worker.hpp"
#include "store/merge.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"

using namespace araxl;

namespace {

constexpr const char* kDefaultStorePath = "araxl-cache.jsonl";

// Graceful shutdown: SIGINT/SIGTERM set this token (a lock-free atomic
// store, safe in a signal handler); workers observe it cooperatively at
// scheduler wakeups, queued jobs fail fast as cancelled, the store keeps
// every already-flushed result, and rerunning the same command resumes.
CancelToken g_shutdown;

extern "C" void handle_shutdown_signal(int /*signum*/) {
  g_shutdown.request();
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
}

/// Injector from --inject-faults, else ARAXL_FAULTS, else null.
std::unique_ptr<FaultInjector> make_fault_injector(
    const std::string* flag_spec) {
  if (flag_spec != nullptr && !flag_spec->empty()) {
    return std::make_unique<FaultInjector>(*flag_spec);
  }
  return FaultInjector::from_env();
}

int usage(std::FILE* out) {
  std::fputs(
      "usage:\n"
      "  araxl version | --version\n"
      "  araxl list-kernels\n"
      "  araxl run   --kernel <name> --config <spec> --bpl <bytes-per-lane>\n"
      "              [--seed <n>] [--no-verify] [--oracle-check]\n"
      "  araxl sweep [--configs <spec,spec,...>] [--kernels <k,...>|all|paper]\n"
      "              [--bpl <n,n,...>] [--fig6 | --fig7 | --smoke | --scaling]\n"
      "              [--workers <n>] [--seed <n>] [--shard <i/N>]\n"
      "              [--json <file|->] [--csv <file|->]\n"
      "              [--store <file>] [--no-cache] [--refresh]\n"
      "              [--cache-provenance] [--provenance] [--no-verify]\n"
      "              [--oracle-check] [--quiet]\n"
      "              [--job-timeout <s>] [--watchdog-budget <wakeups>]\n"
      "              [--retries <n>] [--backoff-ms <ms>]\n"
      "              [--inject-faults <spec>]\n"
      "              [--trace-out <file>] [--metrics-out <file|->]\n"
      "  araxl serve --ledger <file> [sweep axes/presets as above]\n"
      "              [--no-verify] [--fsync] [--seed <n>]\n"
      "  araxl worker --ledger <file> [--id <worker-id>]\n"
      "              [--lease-ttl-ms <ms>] [--heartbeat-ms <ms>]\n"
      "              [--straggler-mult <x>] [--straggler-floor-ms <ms>]\n"
      "              [--poll-ms <ms>] [--store <file>] [--no-cache]\n"
      "              [--fsync] [--job-timeout <s>] [--retries <n>]\n"
      "              [--backoff-ms <ms>] [--inject-faults <spec>] [--quiet]\n"
      "  araxl merge (--json <out>|--csv <out>) <shard-report>...\n"
      "  araxl merge --ledger <file> [--json <out>] [--csv <out>]\n"
      "  araxl cache (ls | stats | gc) [--store <file>]\n"
      "  araxl stats [--store <file>] [--kernels <k,...>]\n"
      "              [--config <substr,...>] [--csv <file|->]\n"
      "  araxl report [--store <file> | --from-json <report.json>]\n"
      "              [--out <dir>] [--kernels <k,...>] [--config <substr,...>]\n"
      "\n"
      "config spec: araxl:<lanes> | araxl:<clusters>x<lanes> |\n"
      "  araxl:<groups>x<clusters>x<lanes> (hierarchical) | ara2:<lanes>,\n"
      "  with optional knobs :groups=N :glsu=N :reqi=N :ring=N :l2=N :vlen=N\n"
      "  :mode=event|cycle — e.g. araxl:64:glsu=4 is the Fig. 7a variant and\n"
      "  araxl:128 auto-hierarchizes to 4 groups x 8 clusters x 4 lanes.\n"
      "presets:\n"
      "  --fig6   paper kernels x {8L/16L Ara2, 8..64L AraXL} x {64..512} B/lane\n"
      "  --fig7   paper kernels x 64L AraXL {baseline,+4 GLSU,+1 REQI,+1 RINGI}\n"
      "  --smoke  2 configs x 3 kernels x 64 B/lane (CI-sized)\n"
      "  --scaling  paper kernels x 16..64L flat + 128/256L hierarchical AraXL\n"
      "caching/sharding:\n"
      "  Results are cached in a JSONL store (default araxl-cache.jsonl)\n"
      "  keyed by (config, kernel, B/lane, seed, build version); repeated or\n"
      "  interrupted sweeps only simulate missing jobs. --no-cache ignores\n"
      "  the store, --refresh recomputes and overwrites. --shard i/N runs a\n"
      "  deterministic 1/N slice; `araxl merge` reassembles shard reports\n"
      "  byte-identically to the unsharded run. --cache-provenance reports\n"
      "  real cache_hit flags instead of the deterministic zeros;\n"
      "  --provenance likewise reports the real wakeups_total /\n"
      "  batched_iterations / batch_clamps / warmup_projected engine\n"
      "  counters (and retry attempts).\n"
      "fleet orchestration (serve / worker / merge --ledger):\n"
      "  `araxl serve` enqueues a sweep into a crash-safe append-only job\n"
      "  ledger (checksummed JSONL, same torn-tail discipline as the store);\n"
      "  any number of `araxl worker` processes then pull jobs under lease:\n"
      "  atomic O_EXCL claim files in <ledger>.leases/, heartbeat renewal\n"
      "  while a job simulates, lease expiry -> automatic re-dispatch of a\n"
      "  killed worker's jobs, and straggler jobs exceeding\n"
      "  --straggler-mult x the fleet's median job time are speculatively\n"
      "  re-dispatched. Execution is at-least-once but byte-exact: duplicate\n"
      "  completions dedupe by job fingerprint, and `araxl merge --ledger`\n"
      "  reassembles a final report cmp-identical to a single-process sweep.\n"
      "  SIGTERM drains a worker gracefully (in-flight job unwinds, lease\n"
      "  released, exit 130); a kill -9'd worker's lease simply expires.\n"
      "  --fsync makes ledger/store appends power-loss durable.\n"
      "fault tolerance:\n"
      "  --job-timeout <s>       per-job wall-clock deadline, checked\n"
      "                          cooperatively at scheduler wakeups; an\n"
      "                          expired job fails with status=timeout while\n"
      "                          the rest of the sweep completes\n"
      "  --watchdog-budget <n>   liveness-watchdog override: wakeups without\n"
      "                          progress before a job is declared hung\n"
      "  --retries <n>           retry transient failures up to n times with\n"
      "                          exponential backoff (default 2)\n"
      "  --backoff-ms <ms>       base backoff before the first retry, doubling\n"
      "                          per retry (default 100)\n"
      "  --inject-faults <spec>  deterministic fault injection (also read from\n"
      "                          ARAXL_FAULTS); spec items, comma-separated:\n"
      "                          seed=<u64> store.open=<rate> store.write=<rate>\n"
      "                          store.rename=<rate> ledger.open=<rate>\n"
      "                          ledger.write=<rate> lease.claim=<rate>\n"
      "                          lease.renew=<rate> job=<rate>[@k]\n"
      "                          job.fail=<rate> job.hang=<rate>\n"
      "  Ctrl-C / SIGTERM stop the sweep gracefully: running jobs unwind at\n"
      "  their next wakeup check, finished results are already flushed to the\n"
      "  store, and rerunning the same command resumes (cached jobs replay).\n"
      "observability:\n"
      "  --trace-out <file>      write a Chrome-trace-event JSON timeline of\n"
      "                          the sweep (open at https://ui.perfetto.dev):\n"
      "                          per-unit instruction spans plus scheduler\n"
      "                          wakeups and batching engage/clamp/reject\n"
      "                          markers; timestamps are simulation cycles and\n"
      "                          the file is byte-deterministic. Implies\n"
      "                          simulating every job (cache lookups are\n"
      "                          skipped; results are still stored).\n"
      "  --metrics-out <file|->  write the sweep's metrics registry (per-unit\n"
      "                          busy/stall/idle cycles, occupancy histogram,\n"
      "                          batching-rejection counters, per-phase wall\n"
      "                          times, store flush traffic) as flat JSON\n"
      "  araxl stats             roll up batching telemetry (iterations and\n"
      "                          typed rejection reasons) per job from the\n"
      "                          result store of a finished sweep; --config\n"
      "                          filters rows by config-label substring and\n"
      "                          --csv emits a machine-readable table that\n"
      "                          also carries the stall taxonomy\n"
      "  araxl report            regenerate the paper's analysis surfaces\n"
      "                          from a finished sweep (store or merged JSON\n"
      "                          report): summary tables, flat CSV, and\n"
      "                          dependency-free SVGs — pareto frontiers\n"
      "                          (GFLOPS vs W / vs mm^2), fmax-vs-lanes\n"
      "                          scaling, per-kernel stall-taxonomy stacked\n"
      "                          bars, and the Fig. 1 SoA landscape with this\n"
      "                          run's configs overlaid; artifacts land in\n"
      "                          --out (default araxl-report/) and are\n"
      "                          byte-identical for any worker count or\n"
      "                          shard split\n"
      "exit codes:\n"
      "  0  every job succeeded          2  usage or configuration error\n"
      "  1  one or more jobs failed      3  internal or store I/O error\n"
      "  130  interrupted by SIGINT/SIGTERM (rerun to resume)\n",
      out);
  return out == stderr ? 2 : 0;
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  [[nodiscard]] const std::string* get(std::string_view key) const {
    for (const auto& [k, v] : flags) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] bool has(std::string_view key) const { return get(key) != nullptr; }
};

// Flags that take a value; everything else is boolean.
bool flag_takes_value(std::string_view name) {
  static constexpr std::string_view kValued[] = {
      "--kernel",      "--kernels",       "--config",  "--configs",
      "--bpl",         "--workers",       "--seed",    "--json",
      "--csv",         "--store",         "--shard",   "--job-timeout",
      "--watchdog-budget", "--retries",   "--backoff-ms",
      "--inject-faults",   "--trace-out", "--metrics-out",
      "--out",         "--from-json",     "--ledger",  "--id",
      "--lease-ttl-ms",    "--heartbeat-ms",
      "--straggler-mult",  "--straggler-floor-ms",     "--poll-ms",
  };
  for (const std::string_view v : kValued) {
    if (name == v) return true;
  }
  return false;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.emplace_back(a);
      continue;
    }
    const std::size_t eq = a.find('=');
    if (eq != std::string_view::npos) {
      args.flags.emplace_back(std::string(a.substr(0, eq)),
                              std::string(a.substr(eq + 1)));
    } else if (flag_takes_value(a)) {
      check(i + 1 < argc, "flag needs a value: " + std::string(a));
      args.flags.emplace_back(std::string(a), argv[++i]);
    } else {
      args.flags.emplace_back(std::string(a), "");
    }
  }
  return args;
}

std::uint64_t parse_u64_single(const std::string& v) {
  const auto list = driver::parse_u64_list(v);
  check(list.size() == 1, "expected one number, got a list");
  return list[0];
}

std::uint64_t flag_u64(const Args& args, std::string_view key,
                       std::uint64_t fallback) {
  const std::string* v = args.get(key);
  return v == nullptr ? fallback : parse_u64_single(*v);
}

double flag_double(const Args& args, std::string_view key, double fallback) {
  const std::string* v = args.get(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  check(end != nullptr && *end == '\0' && !v->empty() && parsed >= 0.0,
        "flag " + std::string(key) + " needs a non-negative number, got '" +
            *v + "'");
  return parsed;
}

std::vector<std::string> resolve_kernels(const std::string& spec) {
  const driver::KernelRegistry& reg = driver::KernelRegistry::instance();
  if (spec == "all") return reg.names();
  if (spec == "paper") return reg.paper_names();
  std::vector<std::string> out = driver::split_list(spec);
  for (const std::string& k : out) (void)reg.at(k);
  return out;
}

int cmd_list_kernels() {
  TextTable table({"kernel", "set", "max DP-FLOP/cycle/lane", "default B/lane"});
  table.align_right(2);
  const driver::KernelRegistry& reg = driver::KernelRegistry::instance();
  for (const std::string& name : reg.names()) {
    const driver::KernelInfo& info = reg.at(name);
    std::string grid;
    for (const std::uint64_t b : info.default_bpl_grid) {
      if (!grid.empty()) grid += ",";
      grid += std::to_string(b);
    }
    table.add_row({info.name, info.extension ? "extension" : "Table I",
                   fmt_f(info.max_perf_factor, 1), grid});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

driver::SweepSpec preset_fig6() {
  driver::SweepSpec spec;
  for (const char* c : {"ara2:8", "araxl:8", "ara2:16", "araxl:16", "araxl:32",
                        "araxl:64"}) {
    spec.configs.push_back(driver::parse_config_spec(c));
  }
  spec.kernels = driver::KernelRegistry::instance().paper_names();
  spec.bytes_per_lane = {64, 128, 256, 512};
  return spec;
}

driver::SweepSpec preset_fig7() {
  driver::SweepSpec spec;
  for (const char* c : {"araxl:64", "araxl:64:glsu=4", "araxl:64:reqi=1",
                        "araxl:64:ring=1"}) {
    spec.configs.push_back(driver::parse_config_spec(c));
  }
  spec.kernels = driver::KernelRegistry::instance().paper_names();
  spec.bytes_per_lane = {128, 256, 512};
  return spec;
}

driver::SweepSpec preset_scaling() {
  // The paper's Table II scaling study extended past its 64-lane flagship:
  // flat machines up to the 16-stop ring ceiling, then the hierarchical
  // topologies that keep every ring at <= 8 stops (and the 1.40 GHz
  // corner) at 128 and 256 lanes.
  driver::SweepSpec spec;
  for (const char* c :
       {"araxl:16", "araxl:32", "araxl:64", "araxl:128", "araxl:256"}) {
    spec.configs.push_back(driver::parse_config_spec(c));
  }
  spec.kernels = driver::KernelRegistry::instance().paper_names();
  spec.bytes_per_lane = {256};
  return spec;
}

driver::SweepSpec preset_smoke() {
  driver::SweepSpec spec;
  spec.configs.push_back(driver::parse_config_spec("araxl:8"));
  spec.configs.push_back(driver::parse_config_spec("ara2:8"));
  spec.kernels = {"fdotproduct", "exp", "stream_triad"};
  spec.bytes_per_lane = {64};
  return spec;
}

int run_and_report(const driver::SweepSpec& spec, const Args& args,
                   bool print_summary) {
  // A report routed to stdout must stay machine-parseable: keep the
  // human-readable summary off that stream.
  for (const char* key : {"--json", "--csv"}) {
    const std::string* path = args.get(key);
    if (path != nullptr && *path == "-") print_summary = false;
  }
  driver::RunnerOptions opts;
  opts.workers = static_cast<unsigned>(flag_u64(args, "--workers", 1));
  opts.verify = !args.has("--no-verify");
  opts.check_oracle = args.has("--oracle-check");
  opts.refresh = args.has("--refresh");
  opts.job_timeout_s = flag_double(args, "--job-timeout", 0.0);
  opts.watchdog_budget = flag_u64(args, "--watchdog-budget", 0);
  opts.retry.max_attempts =
      1 + static_cast<unsigned>(flag_u64(args, "--retries", 2));
  opts.retry.backoff_ms = flag_u64(args, "--backoff-ms", 100);
  install_signal_handlers();
  opts.cancel = &g_shutdown;
  const std::unique_ptr<FaultInjector> faults =
      make_fault_injector(args.get("--inject-faults"));
  opts.faults = faults.get();

  // Observability: the registry only exists (and instrumentation only
  // costs anything) when a sink asked for it.
  const std::string* metrics_out = args.get("--metrics-out");
  const std::string* trace_out = args.get("--trace-out");
  obs::MetricsRegistry metrics;
  if (metrics_out != nullptr) opts.metrics = &metrics;
  if (trace_out != nullptr) {
    opts.capture_trace = true;
    // A replayed job has no trace; a complete timeline needs every job
    // simulated. Results still flow into the store for later sweeps.
    opts.use_cache = false;
  }

  std::unique_ptr<store::ResultStore> result_store;
  if (!args.has("--no-cache")) {
    const std::string* path = args.get("--store");
    result_store = std::make_unique<store::ResultStore>(
        path != nullptr ? *path : kDefaultStorePath);
    result_store->set_fault_injector(faults.get());
    result_store->set_metrics(opts.metrics);
    result_store->set_fsync(args.has("--fsync"));
    opts.store = result_store.get();
  }
  const bool quiet = args.has("--quiet");
  std::atomic<std::size_t> hb_done{0};
  std::atomic<std::size_t> hb_cached{0};
  if (!quiet) {
    if (faults != nullptr) {
      std::fprintf(stderr, "fault injection active: %s\n",
                   faults->describe().c_str());
    }
    opts.progress = [&hb_done, &hb_cached](const driver::JobResult& r,
                                           std::size_t done,
                                           std::size_t total) {
      hb_done.store(done, std::memory_order_relaxed);
      if (r.cache_hit) hb_cached.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "[%zu/%zu] %-18s %-12s bpl=%-6llu %s\n", done, total,
                   r.job.config_label.c_str(), r.job.kernel.c_str(),
                   static_cast<unsigned long long>(r.job.bytes_per_lane),
                   r.ok ? (r.cache_hit ? "ok (cached)" : "ok")
                        : strprintf("FAILED (%s)",
                                    std::string(driver::error_kind_name(
                                                    r.error_kind))
                                        .c_str())
                              .c_str());
    };
  }

  driver::ShardSpec shard;
  if (const std::string* s = args.get("--shard")) {
    shard = driver::parse_shard_spec(*s);
  }
  const std::vector<driver::Job> jobs =
      driver::filter_shard(driver::expand(spec), shard);

  const auto t0 = std::chrono::steady_clock::now();

  // Heartbeat: one status line every ~2s on long sweeps so an operator
  // watching a multi-minute run sees progress and an ETA without the
  // per-job log noise. stderr only; silenced by --quiet (CI byte-identity
  // cmp runs pass --quiet, and reports never carry wall-clock data).
  // Every heartbeat line carries a stable worker-id prefix (--id, default
  // w0) so interleaved stderr from a fleet of processes stays attributable.
  const std::string* id_flag = args.get("--id");
  const std::string hb_id = id_flag != nullptr ? *id_flag : "w0";
  std::optional<Ticker> heartbeat;  // after what its tick reads
  if (!quiet && jobs.size() > 1) {
    heartbeat.emplace(std::chrono::milliseconds(2000), [&hb_done, &hb_cached,
                                                        &hb_id, &jobs, t0] {
      const std::size_t done = hb_done.load(std::memory_order_relaxed);
      const std::size_t cached = hb_cached.load(std::memory_order_relaxed);
      if (done == 0 || done >= jobs.size()) return;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double eta = elapsed / static_cast<double>(done) *
                         static_cast<double>(jobs.size() - done);
      std::fprintf(stderr,
                   "[%s] [heartbeat] %zu/%zu jobs (%zu cached, %zu "
                   "simulated), %.1fs elapsed, ETA %.1fs\n",
                   hb_id.c_str(), done, jobs.size(), cached, done - cached,
                   elapsed, eta);
    });
  }

  const std::vector<driver::JobResult> results = driver::run_jobs(jobs, opts);
  // Wakes the heartbeat instead of waiting out its period.
  heartbeat.reset();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  driver::ReportOptions report_opts;
  report_opts.live_cache_flags = args.has("--cache-provenance");
  report_opts.live_provenance = args.has("--provenance");
  if (const std::string* path = args.get("--json")) {
    driver::write_report(*path, driver::to_json(results, report_opts));
  }
  if (const std::string* path = args.get("--csv")) {
    driver::write_report(*path, driver::to_csv(results, report_opts));
  }
  if (trace_out != nullptr) {
    std::vector<obs::TraceExportJob> tjobs;
    tjobs.reserve(results.size());
    for (const driver::JobResult& r : results) {
      obs::TraceExportJob tj;
      tj.name = strprintf("%s %s bpl=%llu seed=%llu",
                          r.job.config_label.c_str(), r.job.kernel.c_str(),
                          static_cast<unsigned long long>(r.job.bytes_per_lane),
                          static_cast<unsigned long long>(r.job.seed));
      tj.trace = r.trace.get();
      tjobs.push_back(std::move(tj));
    }
    driver::write_report(*trace_out, obs::export_chrome_trace(tjobs));
  }
  if (metrics_out != nullptr) {
    driver::write_report(*metrics_out, metrics.to_json());
  }

  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t degraded = 0;
  std::size_t retried = 0;
  for (const driver::JobResult& r : results) {
    if (r.attempts > 1) ++retried;
    if (r.store_degraded) {
      ++degraded;
      std::fprintf(stderr, "WARN job %zu (%s %s bpl=%llu): result not cached: %s\n",
                   r.job.index, r.job.config_label.c_str(),
                   r.job.kernel.c_str(),
                   static_cast<unsigned long long>(r.job.bytes_per_lane),
                   r.store_warning.c_str());
    }
    if (!r.ok) {
      ++failed;
      if (r.error_kind == driver::ErrorKind::kCancelled) ++cancelled;
      std::fprintf(stderr, "FAILED job %zu (%s %s bpl=%llu) [%s]: %s\n",
                   r.job.index, r.job.config_label.c_str(),
                   r.job.kernel.c_str(),
                   static_cast<unsigned long long>(r.job.bytes_per_lane),
                   std::string(driver::error_kind_name(r.error_kind)).c_str(),
                   r.error.c_str());
    }
  }

  if (print_summary) {
    TextTable table({"config", "kernel", "B/lane", "cycles", "DP-FLOP/cycle",
                     "FPU util", "GFLOPS@fmax", "wakeups", "batched", "status"});
    for (std::size_t c = 2; c < 9; ++c) table.align_right(c);
    const FreqModel freq_model;
    for (const driver::JobResult& r : results) {
      if (r.ok) {
        // Cached results carry no engine provenance (nothing was simulated).
        table.add_row({r.job.config_label, r.job.kernel,
                       std::to_string(r.job.bytes_per_lane),
                       fmt_group(r.stats.cycles),
                       fmt_f(r.stats.flop_per_cycle(), 2),
                       fmt_pct(r.stats.fpu_util(), 1),
                       fmt_f(r.stats.gflops(freq_model.freq_ghz(r.job.cfg)), 1),
                       r.cache_hit ? "-" : fmt_group(r.stats.wakeups_total),
                       r.cache_hit ? "-" : fmt_group(r.stats.batched_iterations),
                       "ok"});
      } else {
        table.add_row({r.job.config_label, r.job.kernel,
                       std::to_string(r.job.bytes_per_lane), "-", "-", "-", "-",
                       "-", "-",
                       std::string(driver::error_kind_name(r.error_kind))});
      }
    }
    std::printf("%s", table.render().c_str());
  }
  if (!quiet) {
    std::size_t cached = 0;
    for (const driver::JobResult& r : results) {
      if (r.cache_hit) ++cached;
    }
    std::string shard_note;
    if (shard.count > 1) {
      shard_note = strprintf(" [shard %u/%u]", shard.index, shard.count);
    }
    std::string robustness_note;
    if (cancelled > 0) {
      robustness_note += strprintf(" (%zu cancelled)", cancelled);
    }
    if (retried > 0) robustness_note += strprintf(", %zu retried", retried);
    if (degraded > 0) {
      robustness_note += strprintf(", %zu uncached (store degraded)", degraded);
    }
    std::fprintf(stderr,
                 "%zu jobs, %zu failed%s, %zu cached, %zu simulated, "
                 "%u worker(s), %.2fs wall%s\n",
                 results.size(), failed, robustness_note.c_str(), cached,
                 results.size() - cached,
                 opts.workers == 0 ? std::thread::hardware_concurrency()
                                   : opts.workers,
                 wall_s, shard_note.c_str());
  }
  if (g_shutdown.requested()) {
    std::fprintf(stderr,
                 "interrupted — completed results are in the store; rerun the "
                 "same command to resume\n");
    return 130;
  }
  return failed == 0 ? 0 : 1;
}

int cmd_version() {
  std::printf("araxl %s (config schema v%u)\n",
              store::build_version().c_str(), store::kConfigSchemaVersion);
  return 0;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  check(f.good(), "cannot open report file for reading: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  check(f.good() || f.eof(), "failed reading report file: " + path);
  return std::move(ss).str();
}

int cmd_merge(const Args& args) {
  const std::string* json_out = args.get("--json");
  const std::string* csv_out = args.get("--csv");
  if (const std::string* ledger = args.get("--ledger")) {
    // Fleet mode: reassemble the final report from a complete ledger's
    // done records. Both outputs are allowed at once — the ledger carries
    // each job's JSON and CSV record text.
    check(json_out != nullptr || csv_out != nullptr,
          "merge --ledger needs --json <out> and/or --csv <out>");
    check(args.positional.size() == 1,
          "merge --ledger takes no input reports");
    const serve::LedgerLoad led = serve::ledger_load(*ledger);
    if (json_out != nullptr) {
      driver::write_report(*json_out, serve::ledger_report_json(led));
    }
    if (csv_out != nullptr) {
      driver::write_report(*csv_out, serve::ledger_report_csv(led));
    }
    std::fprintf(stderr, "assembled %zu job(s) from ledger %s\n",
                 led.done_count, ledger->c_str());
    return 0;
  }
  check((json_out != nullptr) != (csv_out != nullptr),
        "merge needs exactly one of --json <out> or --csv <out>");
  check(args.positional.size() >= 2,
        "merge needs at least one input report");
  std::vector<std::string> docs;
  docs.reserve(args.positional.size() - 1);
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    docs.push_back(slurp(args.positional[i]));
  }
  if (json_out != nullptr) {
    driver::write_report(*json_out, store::merge_json_reports(docs));
  } else {
    driver::write_report(*csv_out, store::merge_csv_reports(docs));
  }
  std::fprintf(stderr, "merged %zu report(s)\n", docs.size());
  return 0;
}

int cmd_cache(const Args& args) {
  check(args.positional.size() >= 2,
        "cache needs a subcommand: ls | stats | gc");
  const std::string& sub = args.positional[1];
  const std::string* path = args.get("--store");
  store::ResultStore result_store(path != nullptr ? *path : kDefaultStorePath);
  // Chaos testing reaches cache maintenance too: an injected gc failure
  // surfaces as StoreIoError -> exit code 3.
  const std::unique_ptr<FaultInjector> faults =
      make_fault_injector(args.get("--inject-faults"));
  result_store.set_fault_injector(faults.get());
  const std::string current = store::build_version();

  if (sub == "ls") {
    TextTable table({"fingerprint", "kernel", "config", "B/lane", "seed",
                     "verified", "version"});
    table.align_right(3);
    table.align_right(4);
    for (const store::StoredResult& r : result_store.entries()) {
      table.add_row({r.fingerprint.substr(0, 16), r.kernel,
                     r.label.empty() ? r.config.substr(0, 24) : r.label,
                     std::to_string(r.bytes_per_lane), std::to_string(r.seed),
                     r.verified ? "yes" : "no",
                     r.version == current ? "current" : "stale"});
    }
    std::printf("%s", table.render().c_str());
    std::fprintf(stderr, "%zu entr%s in %s\n", result_store.size(),
                 result_store.size() == 1 ? "y" : "ies",
                 result_store.path().c_str());
    return 0;
  }
  if (sub == "stats") {
    const store::LoadReport& lr = result_store.load_report();
    std::size_t stale = 0;
    for (const store::StoredResult& r : result_store.entries()) {
      if (r.version != current) ++stale;
    }
    std::printf("store:          %s\n", result_store.path().c_str());
    std::printf("entries:        %zu\n", result_store.size());
    std::printf("stale version:  %zu\n", stale);
    std::printf("current salt:   %s\n", current.c_str());
    std::printf("load: %zu line(s), %zu bad, %zu fingerprint mismatch(es), "
                "%zu superseded\n",
                lr.lines, lr.bad_lines, lr.fp_mismatches, lr.superseded);
    return 0;
  }
  if (sub == "gc") {
    const std::size_t before = result_store.size();
    const std::size_t removed = result_store.gc(current);  // compacts on disk
    std::fprintf(stderr, "dropped %zu stale entr%s, kept %zu (%s)\n", removed,
                 removed == 1 ? "y" : "ies", before - removed,
                 result_store.path().c_str());
    return 0;
  }
  fail("unknown cache subcommand '" + sub + "' (ls | stats | gc)");
}

// `araxl stats` — batching-telemetry rollup from the result store. The
// store persists the engine-provenance counters (wakeups, batched
// iterations, typed rejection reasons) that default reports zero out, so a
// finished sweep can be diagnosed after the fact: a kernel showing
// batched=0 names the gate that rejected it in its nonzero reject column.
int cmd_stats(const Args& args) {
  const std::string* path = args.get("--store");
  store::ResultStore result_store(path != nullptr ? *path : kDefaultStorePath);
  std::vector<std::string> kernel_filter;
  if (const std::string* k = args.get("--kernels")) {
    kernel_filter = resolve_kernels(*k);
  }
  // --config filters rows whose display label (or canonical config, when no
  // label was stored) contains any of the given substrings.
  std::vector<std::string> config_filter;
  if (const std::string* c = args.get("--config")) {
    config_filter = driver::split_list(*c);
  }

  std::vector<store::StoredResult> entries = result_store.entries();
  std::sort(entries.begin(), entries.end(),
            [](const store::StoredResult& a, const store::StoredResult& b) {
              if (a.label != b.label) return a.label < b.label;
              if (a.kernel != b.kernel) return a.kernel < b.kernel;
              if (a.bytes_per_lane != b.bytes_per_lane) {
                return a.bytes_per_lane < b.bytes_per_lane;
              }
              return a.seed < b.seed;
            });

  std::vector<std::string> header = {"config", "kernel",  "B/lane", "cycles",
                                     "wakeups", "batched", "clamps", "warmproj"};
  for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
    header.push_back(std::string(batch_reject_name(static_cast<BatchReject>(i))));
  }
  TextTable table(header);
  for (std::size_t c = 2; c < header.size(); ++c) table.align_right(c);

  // --csv routes a machine-readable table (with the stall taxonomy, which
  // the human-readable table omits for width) to a file or stdout.
  // Columns: cycles, then the opt-in fields of kRunStatsFields with the
  // scalar provenance counters first (the same lead as the table above).
  std::vector<std::pair<const StatField*, std::size_t>> csv_words;
  for (const bool lead : {true, false}) {
    for (const StatField& f : kRunStatsFields) {
      const bool scalar_provenance = !f.measurement() && !f.is_array();
      if (!f.opt_in() || scalar_provenance != lead) continue;
      for (std::size_t i = 0; i < f.count; ++i) csv_words.emplace_back(&f, i);
    }
  }
  std::string csv = "config,kernel,bytes_per_lane,seed,cycles";
  for (const auto& [f, i] : csv_words) {
    csv += ',';
    csv += f->csv_prefix;
    csv += f->word_name(i);
  }
  csv += '\n';

  std::size_t shown = 0;
  std::uint64_t total_batched = 0;
  std::uint64_t total_clamps = 0;
  std::uint64_t total_warmproj = 0;
  std::array<std::uint64_t, kNumBatchRejects> total_rejects{};
  for (const store::StoredResult& r : entries) {
    if (!kernel_filter.empty() &&
        std::find(kernel_filter.begin(), kernel_filter.end(), r.kernel) ==
            kernel_filter.end()) {
      continue;
    }
    const std::string label = r.label.empty() ? r.config : r.label;
    if (!config_filter.empty()) {
      bool hit = false;
      for (const std::string& sub : config_filter) {
        if (label.find(sub) != std::string::npos) {
          hit = true;
          break;
        }
      }
      if (!hit) continue;
    }
    ++shown;
    total_batched += r.stats.batched_iterations;
    total_clamps += r.stats.batch_clamps;
    total_warmproj += r.stats.warmup_projected;
    std::vector<std::string> row = {
        r.label.empty() ? r.config.substr(0, 24) : r.label, r.kernel,
        std::to_string(r.bytes_per_lane), fmt_group(r.stats.cycles),
        fmt_group(r.stats.wakeups_total),
        fmt_group(r.stats.batched_iterations),
        fmt_group(r.stats.batch_clamps),
        fmt_group(r.stats.warmup_projected)};
    for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
      total_rejects[i] += r.stats.batch_rejects[i];
      row.push_back(fmt_group(r.stats.batch_rejects[i]));
    }
    table.add_row(row);

    csv += label + "," + r.kernel + "," + std::to_string(r.bytes_per_lane) +
           "," + std::to_string(r.seed) + "," +
           std::to_string(r.stats.cycles);
    for (const auto& [f, i] : csv_words) {
      csv += ',';
      csv += std::to_string(f->words(r.stats)[i]);
    }
    csv += '\n';
  }
  if (shown > 1) {
    table.add_rule();
    std::vector<std::string> totals = {"total",
                                       "",
                                       "",
                                       "",
                                       "",
                                       fmt_group(total_batched),
                                       fmt_group(total_clamps),
                                       fmt_group(total_warmproj)};
    for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
      totals.push_back(fmt_group(total_rejects[i]));
    }
    table.add_row(totals);
  }
  if (const std::string* csv_out = args.get("--csv")) {
    driver::write_report(*csv_out, csv);
  } else {
    std::printf("%s", table.render().c_str());
  }
  std::fprintf(stderr,
               "%zu entr%s from %s (counters persist only for simulated "
               "runs; pre-telemetry store entries read as zero)\n",
               shown, shown == 1 ? "y" : "ies", result_store.path().c_str());
  return 0;
}

// `araxl report` — regenerate the paper's analysis surfaces from a finished
// sweep. The dataset comes from the result store (the primary path: it
// persists the real stall taxonomy) or from a merged driver JSON report
// (--from-json). Artifacts are written into --out and are byte-identical
// for any worker count or shard split of the producing sweep.
int cmd_report(const Args& args) {
  analysis::RowFilter filter;
  if (const std::string* k = args.get("--kernels")) {
    filter.kernels = resolve_kernels(*k);
  }
  if (const std::string* c = args.get("--config")) {
    filter.configs = driver::split_list(*c);
  }

  analysis::Dataset ds;
  if (const std::string* json_in = args.get("--from-json")) {
    ds = analysis::dataset_from_json_report(slurp(*json_in), filter);
  } else {
    const std::string* path = args.get("--store");
    store::ResultStore result_store(path != nullptr ? *path
                                                    : kDefaultStorePath);
    // Only current-version records are comparable (and carry this build's
    // stall attribution) — same rule the sweep cache applies.
    ds = analysis::dataset_from_store(result_store.entries(),
                                      store::build_version(), filter);
  }
  check(!ds.rows.empty(),
        "no analyzable rows (empty/stale store or over-restrictive filters); "
        "run a sweep first, e.g. `araxl sweep --smoke`");

  const std::string* out = args.get("--out");
  const std::string dir = out != nullptr ? *out : "araxl-report";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  check(!ec, "cannot create report directory: " + dir);
  const std::vector<analysis::Artifact> artifacts =
      analysis::build_report(ds);
  for (const analysis::Artifact& a : artifacts) {
    driver::write_report(dir + "/" + a.name, a.content);
  }
  std::fprintf(stderr, "wrote %zu artifact(s) from %zu row(s) to %s/\n",
               artifacts.size(), ds.rows.size(), dir.c_str());
  return 0;
}

int cmd_run(const Args& args) {
  const std::string* kernel = args.get("--kernel");
  check(kernel != nullptr, "run needs --kernel");
  const std::string* config = args.get("--config");
  driver::SweepSpec spec;
  spec.configs.push_back(
      driver::parse_config_spec(config != nullptr ? *config : "araxl:64"));
  spec.kernels = {*kernel};
  spec.bytes_per_lane = {flag_u64(args, "--bpl", 512)};
  spec.base_seed = flag_u64(args, "--seed", 0);
  return run_and_report(spec, args, /*print_summary=*/true);
}

// Sweep axes from presets + overrides; shared by `sweep` (execute here)
// and `serve` (enqueue into a ledger for a worker fleet).
driver::SweepSpec build_sweep_spec(const Args& args) {
  driver::SweepSpec spec;
  if (args.has("--fig6")) {
    spec = preset_fig6();
  } else if (args.has("--fig7")) {
    spec = preset_fig7();
  } else if (args.has("--smoke")) {
    spec = preset_smoke();
  } else if (args.has("--scaling")) {
    spec = preset_scaling();
  }

  if (const std::string* configs = args.get("--configs")) {
    spec.configs.clear();
    for (const std::string& c : driver::split_list(*configs)) {
      spec.configs.push_back(driver::parse_config_spec(c));
    }
  }
  if (const std::string* kernels = args.get("--kernels")) {
    spec.kernels = resolve_kernels(*kernels);
  }
  if (const std::string* bpl = args.get("--bpl")) {
    spec.bytes_per_lane = driver::parse_u64_list(*bpl);
  }
  check(!spec.configs.empty(),
        "sweep needs --configs (or a preset: --fig6/--fig7/--smoke)");
  if (spec.kernels.empty()) {
    spec.kernels = driver::KernelRegistry::instance().paper_names();
  }
  if (spec.bytes_per_lane.empty()) spec.bytes_per_lane = {64, 128, 256, 512};
  spec.base_seed = flag_u64(args, "--seed", 0);
  return spec;
}

int cmd_sweep(const Args& args) {
  return run_and_report(build_sweep_spec(args), args, !args.has("--quiet"));
}

// `araxl serve` — enqueue a sweep into a crash-safe job ledger. Workers
// re-expand the job list from the header, so the ledger stores the
// declarative axes (a ConfigPoint's label IS its parseable spec string),
// not per-job configs.
int cmd_serve(const Args& args) {
  const std::string* ledger = args.get("--ledger");
  check(ledger != nullptr, "serve needs --ledger <file>");
  const driver::SweepSpec spec = build_sweep_spec(args);

  serve::LedgerSpec lspec;
  lspec.configs.reserve(spec.configs.size());
  for (const driver::ConfigPoint& cp : spec.configs) {
    lspec.configs.push_back(cp.label);
  }
  lspec.kernels = spec.kernels;
  lspec.bytes_per_lane = spec.bytes_per_lane;
  lspec.base_seed = spec.base_seed;
  lspec.verify = !args.has("--no-verify");
  lspec.version = store::build_version();
  lspec.jobs = driver::expand(spec).size();

  const std::unique_ptr<FaultInjector> faults =
      make_fault_injector(args.get("--inject-faults"));
  serve::ledger_create(*ledger, lspec, faults.get(), args.has("--fsync"));
  std::fprintf(stderr,
               "enqueued %llu job(s) into %s (build %s); start workers with: "
               "araxl worker --ledger %s\n",
               static_cast<unsigned long long>(lspec.jobs), ledger->c_str(),
               lspec.version.c_str(), ledger->c_str());
  return 0;
}

// `araxl worker` — one fleet worker process pulling ledger jobs under
// lease. Any number of these run concurrently against one ledger; see
// src/serve/worker.hpp for the protocol.
int cmd_worker(const Args& args) {
  const std::string* ledger = args.get("--ledger");
  check(ledger != nullptr, "worker needs --ledger <file>");

  serve::WorkerOptions wopts;
  wopts.ledger_path = *ledger;
  const std::string* id = args.get("--id");
  wopts.worker_id =
      id != nullptr ? *id : strprintf("w-%d", static_cast<int>(::getpid()));
  wopts.lease_ttl_ms = flag_u64(args, "--lease-ttl-ms", 15000);
  wopts.heartbeat_ms = flag_u64(args, "--heartbeat-ms", 0);
  wopts.speculation.straggler_mult =
      flag_double(args, "--straggler-mult", 3.0);
  wopts.speculation.floor_ms = flag_u64(args, "--straggler-floor-ms", 2000);
  wopts.poll_ms = flag_u64(args, "--poll-ms", 200);
  wopts.fsync = args.has("--fsync");

  wopts.runner.job_timeout_s = flag_double(args, "--job-timeout", 0.0);
  wopts.runner.watchdog_budget = flag_u64(args, "--watchdog-budget", 0);
  wopts.runner.retry.max_attempts =
      1 + static_cast<unsigned>(flag_u64(args, "--retries", 2));
  wopts.runner.retry.backoff_ms = flag_u64(args, "--backoff-ms", 100);
  install_signal_handlers();
  wopts.runner.cancel = &g_shutdown;
  const std::unique_ptr<FaultInjector> faults =
      make_fault_injector(args.get("--inject-faults"));
  wopts.runner.faults = faults.get();

  std::unique_ptr<store::ResultStore> result_store;
  if (!args.has("--no-cache")) {
    const std::string* path = args.get("--store");
    result_store = std::make_unique<store::ResultStore>(
        path != nullptr ? *path : kDefaultStorePath);
    result_store->set_fault_injector(faults.get());
    result_store->set_fsync(args.has("--fsync"));
    wopts.runner.store = result_store.get();
  }
  if (!args.has("--quiet")) {
    if (faults != nullptr) {
      std::fprintf(stderr, "fault injection active: %s\n",
                   faults->describe().c_str());
    }
    wopts.log = [](const std::string& msg) {
      std::fprintf(stderr, "%s\n", msg.c_str());
    };
  }

  const serve::WorkerReport rep = serve::run_worker(wopts);
  if (rep.cancelled) {
    std::fprintf(stderr,
                 "interrupted — completed jobs are in the ledger; restart "
                 "the worker to resume\n");
    return 130;
  }
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.has("--version")) return cmd_version();
    if (args.positional.empty() || args.has("--help")) {
      return usage(args.has("--help") ? stdout : stderr);
    }
    const std::string& cmd = args.positional[0];
    if (cmd == "version") return cmd_version();
    if (cmd == "list-kernels") return cmd_list_kernels();
    if (cmd == "run") return cmd_run(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "worker") return cmd_worker(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "cache") return cmd_cache(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "report") return cmd_report(args);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return usage(stderr);
  } catch (const store::StoreIoError& e) {
    std::fprintf(stderr, "araxl: store I/O error: %s\n", e.what());
    return 3;
  } catch (const ContractViolation& e) {
    // Bad flags, malformed specs, unknown kernels: the user's input.
    std::fprintf(stderr, "araxl: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "araxl: internal error: %s\n", e.what());
    return 3;
  }
}

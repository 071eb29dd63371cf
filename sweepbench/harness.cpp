// Sweep benchmark harness: one process runs one workload on one worker.
//
//   sweepbench_harness --workload fig6-cold|scaling-oracle|cache-churn
//                      --seed N --seconds S --trace 0|1 --workdir DIR
//                      [--inject corrupt-verify|flip-store-byte]
//
// Untraced repetitions drive `driver::run_jobs` exactly as `araxl sweep`
// does and give the end-to-end metrics. Traced repetitions (--trace 1)
// drive the same jobs by calling each module's public entry points
// directly, with a span around every call, and give the per-layer split.
// Nothing inside src/ is instrumented: the exact work counters come from
// the provenance fields of the RunStats that Machine::run returns.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every correctness check passed.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "isa/ew.hpp"
#include "isa/instr.hpp"
#include "machine/functional.hpp"
#include "machine/machine.hpp"
#include "machine/timing.hpp"
#include "store/fingerprint.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"

namespace fs = std::filesystem;
using namespace araxl;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-ups per setup_s sample on the workloads without a store. There one
/// set-up (registry and grid expansion) takes about 10 us, and host speed
/// on a shared machine changes over seconds. A sample of kSetupBatch
/// set-ups is therefore taken after every job, so that the samples span the
/// whole run as sweep_s does; sampling only between repetitions caught a
/// few instants of host speed and spread 27% from run to run.
constexpr int kSetupBatch = 20;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "sweepbench_harness: %s\n"
               "usage: sweepbench_harness --workload "
               "fig6-cold|scaling-oracle|cache-churn --seed N --seconds S "
               "--trace 0|1 --workdir DIR "
               "[--inject corrupt-verify|flip-store-byte]\n",
               why.c_str());
  std::exit(2);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string inject;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--workdir") {
        o.workdir = v;
      } else if (a == "--inject") {
        o.inject = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workdir.empty()) usage("--workdir is required");
  if (o.workload != "fig6-cold" && o.workload != "scaling-oracle" &&
      o.workload != "cache-churn") {
    usage("unknown workload " + o.workload);
  }
  if (!o.inject.empty() &&
      !(o.inject == "corrupt-verify" && o.workload == "fig6-cold") &&
      !(o.inject == "flip-store-byte" && o.workload == "cache-churn")) {
    usage("--inject corrupt-verify needs fig6-cold, flip-store-byte needs "
          "cache-churn");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---- workload grids --------------------------------------------------------

driver::SweepSpec grid(const std::vector<const char*>& configs,
                       std::vector<std::string> kernels,
                       std::vector<std::uint64_t> bpl, std::uint64_t seed) {
  driver::SweepSpec spec;
  for (const char* c : configs) {
    spec.configs.push_back(driver::parse_config_spec(c));
  }
  spec.kernels = std::move(kernels);
  spec.bytes_per_lane = std::move(bpl);
  spec.base_seed = seed;
  return spec;
}

const std::vector<const char*> kFig6Configs = {
    "ara2:8", "araxl:8", "ara2:16", "araxl:16", "araxl:32", "araxl:64"};

// cache-churn: every stored sweep is the cheap-kernel grid below at one
// seed. The seed set is derived from the benchmark seed; base seeds are
// never 0 so no two sweeps share fingerprints.
constexpr std::uint64_t kPriorSweeps = 16;
constexpr std::uint64_t kNewSweeps = 2;

std::uint64_t churn_seed(std::uint64_t bench_seed, std::uint64_t k) {
  return bench_seed * 64 + 1 + k;  // k < 64: distinct across bench seeds
}

driver::SweepSpec churn_grid(std::uint64_t seed) {
  std::vector<std::uint64_t> bpl;
  for (std::uint64_t b = 8; b <= 128; b += 8) bpl.push_back(b);
  return grid(kFig6Configs, {"fdotproduct", "exp", "stream_triad", "axpy"},
              bpl, seed);
}

/// Expanded jobs of one repetition. `cold` are simulated (with put+flush
/// when a store is open); `warm` are expected to replay from the store.
struct Plan {
  std::vector<driver::Job> cold;
  std::vector<driver::Job> warm;
  bool oracle = false;
};

Plan make_plan(const Options& o) {
  Plan p;
  if (o.workload == "fig6-cold") {
    p.cold = driver::expand(
        grid(kFig6Configs, driver::KernelRegistry::instance().paper_names(),
             {64, 128, 256, 512}, o.seed));
  } else if (o.workload == "scaling-oracle") {
    p.cold = driver::expand(
        grid({"araxl:16", "araxl:32", "araxl:64", "araxl:128", "araxl:256"},
             driver::KernelRegistry::instance().paper_names(), {256}, o.seed));
    p.oracle = true;
  } else {
    for (std::uint64_t k = 0; k < kNewSweeps; ++k) {
      auto jobs = driver::expand(churn_grid(churn_seed(o.seed, kPriorSweeps + k)));
      p.cold.insert(p.cold.end(), jobs.begin(), jobs.end());
    }
    for (std::uint64_t k = 0; k < kPriorSweeps; ++k) {
      auto jobs = driver::expand(churn_grid(churn_seed(o.seed, k)));
      p.warm.insert(p.warm.end(), jobs.begin(), jobs.end());
    }
  }
  return p;
}

std::string job_fingerprint(const driver::Job& job) {
  store::JobKey key;
  key.config = store::canonical_config(job.cfg);
  key.kernel = job.kernel;
  key.bytes_per_lane = job.bytes_per_lane;
  key.seed = job.seed;
  key.version = store::build_version();
  return store::fingerprint(key);
}

/// Every RunStats field, provenance included ("bit for bit").
bool same_stats(const RunStats& a, const RunStats& b) {
  return a == b && a.wakeups_total == b.wakeups_total &&
         a.batched_iterations == b.batched_iterations &&
         a.batch_rejects == b.batch_rejects &&
         a.warmup_projected == b.warmup_projected &&
         a.batch_clamps == b.batch_clamps;
}

std::uint64_t record_hash(const driver::JobResult& r) {
  return store::hash64(driver::json_record(r));
}

// ---- exact work counters ----------------------------------------------------

// Per-kernel breakdowns: the four kernels that dominate Fig. 6 host time,
// then everything else as "other".
const std::array<std::string_view, 4> kHotKernels = {"fconv2d", "softmax",
                                                     "fmatmul", "jacobi2d"};
constexpr std::size_t kBuckets = kHotKernels.size() + 1;

std::size_t kernel_bucket(std::string_view kernel) {
  for (std::size_t i = 0; i < kHotKernels.size(); ++i) {
    if (kHotKernels[i] == kernel) return i;
  }
  return kHotKernels.size();  // "other"
}

/// Sums over the event-simulated jobs of one repetition (cache replays and
/// oracle runs excluded, matching `araxl sweep --metrics-out`).
struct Counters {
  std::uint64_t jobs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t fpu_result_elems = 0;
  std::uint64_t lane_cycles = 0;
  std::uint64_t wakeups = 0;
  std::array<std::uint64_t, kBuckets> wakeups_by_kernel{};
  std::uint64_t batched_iterations = 0;
  std::array<std::uint64_t, kNumBatchRejects> batch_rejects{};
  std::uint64_t warmup_projected = 0;
  std::uint64_t batch_clamps = 0;

  void add(const driver::Job& job, const RunStats& s) {
    ++jobs;
    cycles += s.cycles;
    fpu_result_elems += s.fpu_result_elems;
    lane_cycles += s.cycles * s.total_lanes;
    wakeups += s.wakeups_total;
    wakeups_by_kernel[kernel_bucket(job.kernel)] += s.wakeups_total;
    batched_iterations += s.batched_iterations;
    for (std::size_t i = 0; i < kNumBatchRejects; ++i) {
      batch_rejects[i] += s.batch_rejects[i];
    }
    warmup_projected += s.warmup_projected;
    batch_clamps += s.batch_clamps;
  }
  bool operator==(const Counters&) const = default;
};

// ---- job checks -------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // run-level check failures

  void job(bool ok, const driver::Job& j, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5) {
      std::fprintf(stderr, "FAILED job %zu (%s %s bpl=%llu seed=%llu): %s\n",
                   j.index, j.config_label.c_str(), j.kernel.c_str(),
                   static_cast<unsigned long long>(j.bytes_per_lane),
                   static_cast<unsigned long long>(j.seed), why.c_str());
    }
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

using Corrupt = std::function<void(Machine&, const driver::Job&)>;

// ---- cache-churn store ------------------------------------------------------

struct ChurnStore {
  std::string prior_path;  // generated once per process, never modified
  std::string work_path;   // reset from prior_path before every repetition
  std::vector<std::uint64_t> cold_hashes;  // json_record hash per warm job
  std::string flipped_fp;  // --inject flip-store-byte: the damaged record
};

/// Simulates every prior sweep cold into a fresh store (untimed) and keeps
/// each cold report record's hash for the warm-equals-cold check. This runs
/// in a child process, so that the measured process's peak RSS covers only
/// the timed path. The child hands its results over in `prior.meta`: the
/// damaged record's fingerprint (or "-"), then one hash per warm job.
ChurnStore generate_store(const Options& o, const Plan& plan) {
  ChurnStore cs;
  cs.prior_path = o.workdir + "/prior.jsonl";
  cs.work_path = o.workdir + "/work.jsonl";
  const std::string meta_path = o.workdir + "/prior.meta";
  fs::remove(cs.prior_path);
  fs::remove(meta_path);
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      Tally tally;
      std::vector<std::uint64_t> hashes;
      {
        store::ResultStore st(cs.prior_path);
        driver::RunnerOptions ro;
        ro.store = &st;
        const auto results = driver::run_jobs(plan.warm, ro);
        for (const auto& r : results) {
          tally.check(r.ok && !r.cache_hit,
                      "store generation failed: " + r.job.kernel + " " + r.error);
          hashes.push_back(record_hash(r));
        }
      }
      std::string flipped = "-";
      if (o.inject == "flip-store-byte") {
        std::vector<std::string> lines;
        {
          std::ifstream in(cs.prior_path, std::ios::binary);
          for (std::string line; std::getline(in, line);) lines.push_back(line);
        }
        std::string& victim = lines[o.seed % lines.size()];
        const std::size_t fp_at = victim.find("\"fp\":\"") + 6;
        flipped = victim.substr(fp_at, 32);
        const std::size_t at = victim.find("\"cycles\":") + 9;
        victim[at] = victim[at] == '9' ? '1' : static_cast<char>(victim[at] + 1);
        std::ofstream out(cs.prior_path, std::ios::binary | std::ios::trunc);
        for (const std::string& line : lines) out << line << '\n';
        std::fprintf(stderr, "flipped one byte in store record %s\n",
                     flipped.c_str());
      }
      std::ofstream meta(meta_path, std::ios::trunc);
      meta << flipped << '\n';
      for (const std::uint64_t h : hashes) meta << h << '\n';
      meta.close();
      code = tally.problems.empty() && meta ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "store generation: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("store generation failed");
  }
  std::ifstream meta(meta_path);
  meta >> cs.flipped_fp;
  if (cs.flipped_fp == "-") cs.flipped_fp.clear();
  for (std::uint64_t h = 0; meta >> h;) cs.cold_hashes.push_back(h);
  if (cs.cold_hashes.size() != plan.warm.size()) {
    throw std::runtime_error("store generation left an incomplete " +
                             meta_path);
  }
  return cs;
}

std::uintmax_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

// ---- one repetition's record ------------------------------------------------

struct RepResult {
  double setup_s = 0.0;
  double sweep_s = 0.0;
  double sim_vinstr_per_s = 0.0;
  Counters counters;
  std::vector<driver::JobResult> cold;  // simulated jobs, plan order
  std::vector<driver::JobResult> warm;  // replayed jobs, plan order
};

/// Per-job checks of a repetition: golden verify (and the oracle match,
/// which run_job folds into `ok`), cold jobs simulated, warm jobs replayed
/// with report records byte-identical to the cold run's, and — against a
/// reference repetition of the same plan — RunStats equal field for field
/// (provenance included) and identical report records. One count per job.
void check_rep(const ChurnStore* cs, const RepResult& rep,
               const RepResult* ref, Tally& tally) {
  const auto matches_ref = [&](bool warm, std::size_t i,
                               const driver::JobResult& r) {
    if (ref == nullptr) return true;
    const auto& refs = warm ? ref->warm : ref->cold;
    return i < refs.size() && same_stats(r.stats, refs[i].stats) &&
           record_hash(r) == record_hash(refs[i]);
  };
  for (std::size_t i = 0; i < rep.cold.size(); ++i) {
    const auto& r = rep.cold[i];
    const char* why = !r.ok           ? r.error.c_str()
                      : r.cache_hit   ? "replayed where a cold run was expected"
                                      : "RunStats or report record differ "
                                        "from the reference repetition";
    tally.job(r.ok && !r.cache_hit && matches_ref(false, i, r), r.job, why);
  }
  std::size_t misses = 0;
  for (std::size_t i = 0; i < rep.warm.size(); ++i) {
    const auto& r = rep.warm[i];
    if (!r.cache_hit) {
      ++misses;
      tally.check(job_fingerprint(r.job) == cs->flipped_fp,
                  "warm pass re-simulated an intact record: job " +
                      std::to_string(r.job.index));
    }
    const char* why = !r.ok ? r.error.c_str()
                            : "warm report record differs from the cold one "
                              "or from the reference repetition";
    tally.job(r.ok && record_hash(r) == cs->cold_hashes[i] &&
                  matches_ref(true, i, r),
              r.job, why);
  }
  if (cs != nullptr) {
    tally.check(misses == (cs->flipped_fp.empty() ? 0u : 1u),
                "warm pass missed " + std::to_string(misses) + " record(s)");
  }
}

driver::JobResult replay_hit(const driver::Job& job,
                             const store::StoredResult& hit) {
  // Same projection as the runner's replay (verification was requested).
  driver::JobResult res;
  res.job = job;
  res.stats = hit.stats;
  res.cache_hit = true;
  res.verified = true;
  res.verify = hit.verify;
  res.tolerance = hit.tolerance;
  res.ok = true;
  return res;
}

// ---- untraced repetition: the production path -------------------------------

/// `setup_samples`, when given, receives set-up timings taken between jobs
/// (see kSetupBatch); the time they take is left out of sweep_s and of the
/// per-job times behind sim_vinstr_per_s.
RepResult run_untraced(const Options& o, const ChurnStore* cs,
                       const RepResult* ref, const Corrupt& corrupt,
                       std::vector<double>* setup_samples, Tally& tally) {
  if (cs != nullptr) {
    fs::copy_file(cs->prior_path, cs->work_path,
                  fs::copy_options::overwrite_existing);
  }
  RepResult rep;
  const double t0 = now_s();
  const Plan plan = make_plan(o);
  std::unique_ptr<store::ResultStore> st;
  if (cs != nullptr) st = std::make_unique<store::ResultStore>(cs->work_path);
  const double t1 = now_s();

  driver::RunnerOptions ro;
  ro.check_oracle = plan.oracle;
  ro.store = st.get();
  ro.corrupt_before_verify = corrupt;
  double last = t1;
  double sim_host_s = 0.0;
  double sampling_s = 0.0;
  std::uint64_t sim_vinstrs = 0;
  ro.progress = [&](const driver::JobResult& r, std::size_t, std::size_t) {
    const double t = now_s();
    if (!r.cache_hit && r.ok) {
      sim_host_s += t - last;
      sim_vinstrs += r.stats.vinstrs;
    }
    last = t;
    if (setup_samples != nullptr) {
      for (int k = 0; k < kSetupBatch; ++k) {
        const Plan p = make_plan(o);
      }
      last = now_s();
      setup_samples->push_back((last - t) / kSetupBatch);
      sampling_s += last - t;
    }
  };
  rep.cold = driver::run_jobs(plan.cold, ro);
  if (!plan.warm.empty()) {
    last = now_s();
    rep.warm = driver::run_jobs(plan.warm, ro);
  }
  std::size_t bytes = 0;
  for (const auto* part : {&rep.cold, &rep.warm}) {
    if (part->empty()) continue;
    bytes += driver::to_json(*part).size() + driver::to_csv(*part).size();
  }
  if (st != nullptr) {
    const auto bundle = analysis::build_report(analysis::dataset_from_store(
        st->entries(), store::build_version(), {}));
    for (const auto& a : bundle) bytes += a.content.size();
  }
  const double t2 = now_s();
  tally.check(bytes > 0, "no report rendered");

  rep.setup_s = t1 - t0;
  rep.sweep_s = t2 - t1 - sampling_s;
  rep.sim_vinstr_per_s =
      sim_host_s > 0.0 ? static_cast<double>(sim_vinstrs) / sim_host_s : 0.0;
  for (const auto& r : rep.cold) {
    if (r.ok) rep.counters.add(r.job, r.stats);
  }
  for (const auto& r : rep.warm) {
    if (r.ok && !r.cache_hit) rep.counters.add(r.job, r.stats);
  }
  check_rep(cs, rep, ref, tally);
  return rep;
}

// ---- traced repetition: the same jobs, layer by layer ------------------------

/// In-memory span log. A span is (name, start, end, job, parent); parents
/// nest strictly because everything runs on one thread.
class Tracer {
 public:
  struct Span {
    std::string_view name;
    double t0 = 0.0;
    double t1 = 0.0;
    long job = -1;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, long job)
        : t_(t), i_(t.open(name, job)) {}
    ~Scope() { t_.close(i_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int i_;
  };

  int open(std::string_view name, long job) {
    spans_.push_back(Span{name, now_s(), 0.0, job, cur_});
    cur_ = static_cast<int>(spans_.size()) - 1;
    return cur_;
  }
  void close(int i) {
    spans_[static_cast<std::size_t>(i)].t1 = now_s();
    cur_ = spans_[static_cast<std::size_t>(i)].parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].t1 - spans_[i].t0;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
  int cur_ = -1;
};

// Span names: leaf layer calls, plus the structural spans below.
constexpr std::string_view kSweep = "sweep";
constexpr std::string_view kJob = "job";
constexpr std::string_view kReplayDiag = "diag.functional_replay";

struct TracedRep {
  RepResult rep;
  Tracer tracer;
  std::vector<std::size_t> job_bucket;   // kernel_bucket, by span.job
  double traced_sweep_s = 0.0;           // sweep window minus diagnostics
  std::uint64_t verify_checked = 0;
  std::uint64_t oracle_cycles = 0;
  std::uint64_t finds = 0;
  std::uint64_t hits = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t records_loaded = 0;
  std::uint64_t load_bad_lines = 0;
};

/// Replays `prog` through a standalone FunctionalEngine on a second machine
/// and compares every byte the program stores, plus both scalar
/// accumulators, against the timed run's machine `timed`.
std::string functional_replay(Tracer& tr, long jid, const driver::Job& job,
                              const Machine& timed) {
  Machine m2(job.cfg);
  auto kernel = driver::KernelRegistry::instance().make(job.kernel);
  kernel->seed_inputs(job.seed);
  const Program prog = kernel->build(m2, job.bytes_per_lane);
  FunctionalEngine fn(m2.config(), m2.vrf(), m2.mem());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stores;
  bool indexed_store = false;
  {
    const Tracer::Scope s(tr, "machine.functional", jid);
    for (const ProgOp& op : prog.ops) {
      const VInstr* in = std::get_if<VInstr>(&op);
      if (in == nullptr) continue;
      if (op_spec(in->op).writes_mem) {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        if (mem_range(*in, fn.vl(), sew_bytes(fn.vtype().sew), &lo, &hi)) {
          if (hi > lo) stores.emplace_back(lo, hi);
        } else {
          indexed_store = true;
        }
      }
      fn.exec(*in);
    }
  }
  if (indexed_store) return "indexed store: replay footprint unknown";
  for (const auto& [lo, hi] : stores) {
    if (std::memcmp(timed.mem().raw(lo, hi - lo), m2.mem().raw(lo, hi - lo),
                    hi - lo) != 0) {
      return "functional replay memory differs from the timed run";
    }
  }
  const double a = timed.scalar_acc();
  const double b = fn.scalar_acc();
  if (std::memcmp(&a, &b, sizeof a) != 0 ||
      timed.scalar_iacc() != fn.scalar_iacc()) {
    return "functional replay scalar accumulator differs from the timed run";
  }
  return {};
}

/// One job through the layers, mirroring driver::run_job's simulate path
/// (build -> run -> [oracle] -> verify -> [put+flush]).
driver::JobResult traced_execute(TracedRep& tr, long jid,
                                 const driver::Job& job, bool oracle,
                                 store::ResultStore* st, const std::string& fp,
                                 const Corrupt& corrupt) {
  Tracer& t = tr.tracer;
  driver::JobResult res;
  res.job = job;
  const auto& registry = driver::KernelRegistry::instance();
  job.cfg.validate();
  std::optional<Machine> m;
  {
    const Tracer::Scope s(t, "machine.ctor", jid);
    m.emplace(job.cfg);
  }
  std::unique_ptr<Kernel> kernel;
  Program prog;
  {
    const Tracer::Scope s(t, "kernels.build", jid);
    kernel = registry.make(job.kernel);
    kernel->seed_inputs(job.seed);
    prog = kernel->build(*m, job.bytes_per_lane);
  }
  {
    const Tracer::Scope s(t, "machine.run", jid);
    res.stats = m->run(prog);
  }
  if (oracle) {
    MachineConfig ocfg = job.cfg;
    ocfg.timing_mode = TimingMode::kCycleStepped;
    std::optional<Machine> om;
    {
      const Tracer::Scope s(t, "machine.ctor", jid);
      om.emplace(ocfg);
    }
    Program oprog;
    {
      const Tracer::Scope s(t, "kernels.build", jid);
      auto ok = registry.make(job.kernel);
      ok->seed_inputs(job.seed);
      oprog = ok->build(*om, job.bytes_per_lane);
    }
    RunStats ostats;
    {
      const Tracer::Scope s(t, "machine.oracle", jid);
      ostats = om->run(oprog);
    }
    tr.oracle_cycles += ostats.cycles;
    if (!(ostats == res.stats)) {
      res.error_kind = driver::ErrorKind::kOracleDivergence;
      res.error = "event-driven RunStats diverge from the oracle";
      return res;
    }
  }
  std::string replay_problem;
  {
    const Tracer::Scope s(t, kReplayDiag, jid);
    replay_problem = functional_replay(t, jid, job, *m);
  }
  if (!replay_problem.empty()) {
    res.error_kind = driver::ErrorKind::kSimulation;
    res.error = replay_problem;
    return res;
  }
  if (corrupt) corrupt(*m, job);
  {
    const Tracer::Scope s(t, "kernels.verify", jid);
    res.verified = true;
    res.tolerance = kernel->tolerance();
    res.verify = kernel->verify(*m);
  }
  tr.verify_checked += res.verify.checked;
  if (!res.verify.ok(res.tolerance)) {
    res.error_kind = driver::ErrorKind::kVerifyFailed;
    res.error = "golden verification failed";
    return res;
  }
  res.ok = true;
  if (st != nullptr) {
    store::StoredResult rec;
    rec.fingerprint = fp;
    rec.version = store::build_version();
    rec.config = store::canonical_config(job.cfg);
    rec.label = job.config_label;
    rec.kernel = job.kernel;
    rec.bytes_per_lane = job.bytes_per_lane;
    rec.seed = job.seed;
    rec.stats = res.stats;
    rec.verified = res.verified;
    rec.tolerance = res.tolerance;
    rec.verify = res.verify;
    const Tracer::Scope s(t, "store.put_flush", jid);
    st->put(std::move(rec));
    st->flush();
  }
  return res;
}

TracedRep run_traced(const Options& o, const ChurnStore* cs,
                     const RepResult* ref, const Corrupt& corrupt,
                     Tally& tally) {
  if (cs != nullptr) {
    fs::copy_file(cs->prior_path, cs->work_path,
                  fs::copy_options::overwrite_existing);
  }
  TracedRep tr;
  Tracer& t = tr.tracer;
  const double t0 = now_s();
  const Plan plan = make_plan(o);
  std::unique_ptr<store::ResultStore> st;
  if (cs != nullptr) {
    const Tracer::Scope s(t, "store.load", -1);
    st = std::make_unique<store::ResultStore>(cs->work_path);
  }
  const double t1 = now_s();
  if (st != nullptr) {
    tr.records_loaded = st->load_report().loaded;
    tr.load_bad_lines = st->load_report().bad_lines;
  }
  const std::uintmax_t size_before =
      cs != nullptr ? file_size_or_zero(cs->work_path) : 0;

  for (const auto* list : {&plan.cold, &plan.warm}) {
    for (const auto& job : *list) {
      tr.job_bucket.push_back(kernel_bucket(job.kernel));
    }
  }
  const int root = t.open(kSweep, -1);
  long jid = 0;
  for (const auto* list : {&plan.cold, &plan.warm}) {
    const bool warm_pass = list == &plan.warm;
    for (const driver::Job& job : *list) {
      driver::JobResult res;
      {
        const Tracer::Scope js(t, kJob, jid);
        std::string fp;
        std::optional<store::StoredResult> hit;  // usable (verified) hits only
        if (st != nullptr) {
          {
            const Tracer::Scope s(t, "store.fingerprint", jid);
            fp = job_fingerprint(job);
          }
          {
            const Tracer::Scope s(t, "store.find", jid);
            hit = st->find(fp);
          }
          if (hit && !hit->verified) hit.reset();
          if (warm_pass) {
            ++tr.finds;
            if (hit) ++tr.hits;
          }
        }
        try {
          if (hit) {
            res = replay_hit(job, *hit);
          } else {
            res = traced_execute(tr, jid, job, plan.oracle, st.get(), fp,
                                 corrupt);
          }
        } catch (const std::exception& e) {
          res = driver::JobResult{};
          res.job = job;
          res.error_kind = driver::ErrorKind::kSimulation;
          res.error = e.what();
        }
      }
      (warm_pass ? tr.rep.warm : tr.rep.cold).push_back(std::move(res));
      ++jid;
    }
  }
  {
    const Tracer::Scope s(t, "driver.report", -1);
    for (const auto* part : {&tr.rep.cold, &tr.rep.warm}) {
      if (part->empty()) continue;
      tr.report_bytes +=
          driver::to_json(*part).size() + driver::to_csv(*part).size();
    }
  }
  if (st != nullptr) {
    const Tracer::Scope s(t, "analysis.bundle", -1);
    const auto bundle = analysis::build_report(analysis::dataset_from_store(
        st->entries(), store::build_version(), {}));
    for (const auto& a : bundle) tr.report_bytes += a.content.size();
  }
  t.close(root);
  if (cs != nullptr) {
    tr.bytes_appended = file_size_or_zero(cs->work_path) - size_before;
  }

  double diag_total = 0.0;
  for (const auto& sp : t.spans()) {
    if (sp.name == kReplayDiag) diag_total += sp.t1 - sp.t0;
  }
  const auto& rs = t.spans()[static_cast<std::size_t>(root)];
  tr.traced_sweep_s = rs.t1 - rs.t0 - diag_total;
  tr.rep.setup_s = t1 - t0;
  tr.rep.sweep_s = tr.traced_sweep_s;
  for (const auto& r : tr.rep.cold) {
    if (r.ok) tr.rep.counters.add(r.job, r.stats);
  }
  for (const auto& r : tr.rep.warm) {
    if (r.ok && !r.cache_hit) tr.rep.counters.add(r.job, r.stats);
  }
  check_rep(cs, tr.rep, ref, tally);
  return tr;
}

// ---- per-layer aggregation --------------------------------------------------

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// Layer metrics of one traced repetition.
MetricMap layer_metrics(const TracedRep& tr, Tally& tally) {
  std::map<std::string_view, double> self;
  std::array<double, kBuckets> run_by_kernel{};
  double unattributed = 0.0;
  const auto& spans = tr.tracer.spans();
  const std::vector<double> st = tr.tracer.self_times();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    tally.check(st[i] >= -1e-9, "span with negative self time: " +
                                    std::string(s.name));
    if (s.name == kSweep || s.name == kJob) {
      unattributed += st[i];
    } else if (s.name != kReplayDiag) {
      self[s.name] += st[i];
      if (s.name == "machine.run") {
        run_by_kernel[tr.job_bucket[static_cast<std::size_t>(s.job)]] += st[i];
      }
    }
  }
  // Accounting identity: layer self times (outside set-up and the
  // diagnostic replay) plus the unattributed glue tile the traced sweep.
  double layered = 0.0;
  for (const auto& [name, v] : self) {
    if (name != "store.load" && name != "machine.functional") layered += v;
  }
  tally.check(std::abs(layered + unattributed - tr.traced_sweep_s) <
                  1e-6 * std::max(1.0, tr.traced_sweep_s),
              "layer self times + driver.unattributed_s != traced sweep_s");

  const auto get = [&](std::string_view n) {
    const auto it = self.find(n);
    return it == self.end() ? 0.0 : it->second;
  };
  const Counters& c = tr.rep.counters;
  const auto per = [](double s, std::uint64_t n, double scale) {
    return n == 0 ? 0.0 : s * scale / static_cast<double>(n);
  };
  MetricMap m;
  m["kernels.build_s"] = {get("kernels.build"), "s"};
  m["kernels.verify_s"] = {get("kernels.verify"), "s"};
  m["kernels.verify_ns_per_elem"] = {
      per(get("kernels.verify"), tr.verify_checked, 1e9), "ns/elem"};
  m["machine.ctor_s"] = {get("machine.ctor"), "s"};
  m["machine.run_s"] = {get("machine.run"), "s"};
  for (std::size_t k = 0; k < kBuckets; ++k) {
    const std::string kn =
        k < kHotKernels.size() ? std::string(kHotKernels[k]) : "other";
    m["machine.run_s." + kn] = {run_by_kernel[k], "s"};
    m["machine.wakeups." + kn] = {
        static_cast<double>(c.wakeups_by_kernel[k]), "count"};
  }
  m["machine.functional_s"] = {get("machine.functional"), "s"};
  m["machine.timing_s"] = {get("machine.run") - get("machine.functional"),
                           "s"};
  m["machine.oracle_s"] = {get("machine.oracle"), "s"};
  m["machine.oracle_ns_per_cycle"] = {
      per(get("machine.oracle"), tr.oracle_cycles, 1e9), "ns/cycle"};
  m["machine.wakeups"] = {static_cast<double>(c.wakeups), "count"};
  m["machine.batched_iterations"] = {
      static_cast<double>(c.batched_iterations), "count"};
  for (std::size_t r = 0; r < kNumBatchRejects; ++r) {
    m["machine.batch_reject." +
      std::string(batch_reject_name(static_cast<BatchReject>(r)))] = {
        static_cast<double>(c.batch_rejects[r]), "count"};
  }
  m["machine.warmup_projected"] = {static_cast<double>(c.warmup_projected),
                                   "count"};
  m["machine.batch_clamps"] = {static_cast<double>(c.batch_clamps), "count"};
  m["machine.run_ns_per_wakeup"] = {per(get("machine.run"), c.wakeups, 1e9),
                                    "ns/wakeup"};
  m["store.load_s"] = {get("store.load"), "s"};
  m["store.records_loaded"] = {static_cast<double>(tr.records_loaded),
                               "count"};
  m["store.load_bad_lines"] = {static_cast<double>(tr.load_bad_lines),
                               "count"};
  m["store.fingerprint_s"] = {get("store.fingerprint"), "s"};
  m["store.put_flush_s"] = {get("store.put_flush"), "s"};
  m["store.bytes_appended"] = {static_cast<double>(tr.bytes_appended),
                               "bytes"};
  m["store.find_s"] = {get("store.find"), "s"};
  m["store.hit_ratio"] = {
      tr.finds == 0 ? 0.0
                    : static_cast<double>(tr.hits) /
                          static_cast<double>(tr.finds),
      "ratio"};
  m["driver.report_s"] = {get("driver.report"), "s"};
  m["driver.report_bytes"] = {static_cast<double>(tr.report_bytes), "bytes"};
  m["driver.unattributed_s"] = {unattributed, "s"};
  m["analysis.bundle_s"] = {get("analysis.bundle"), "s"};
  return m;
}

void write_spans(const std::string& path, const TracedRep& tr) {
  std::ofstream out(path, std::ios::trunc);
  const double base = tr.tracer.spans().empty() ? 0.0 : tr.tracer.spans()[0].t0;
  out << "[\n";
  const auto& spans = tr.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%.*s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                  "\"job\":%ld,\"parent\":%d}%s\n",
                  static_cast<int>(s.name.size()), s.name.data(), s.t0 - base,
                  s.t1 - base, s.job, s.parent,
                  i + 1 == spans.size() ? "" : ",");
    out << buf;
  }
  out << "]\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Options& o) {
  fs::create_directories(o.workdir);
  Tally tally;

  Corrupt corrupt;
  if (o.inject == "corrupt-verify") {
    // One fmatmul job gets its result memory overwritten before verify.
    corrupt = [](Machine& m, const driver::Job& job) {
      if (job.kernel == "fmatmul" && job.config_label == "araxl:8" &&
          job.bytes_per_lane == 64) {
        m.mem().fill(0x55);
      }
    };
  }

  std::optional<ChurnStore> churn;
  if (o.workload == "cache-churn") churn = generate_store(o, make_plan(o));
  const ChurnStore* cs = churn ? &*churn : nullptr;

  std::vector<double> setup_samples;

  // Repetitions until the time is up. The first untraced repetition is
  // the reference every later one (traced or not) must reproduce exactly.
  std::optional<RepResult> first;
  std::vector<double> sweep;
  std::vector<double> vps;
  std::vector<double> traced_sweep;
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, std::string> units;
  std::optional<TracedRep> last_traced;
  std::vector<double> rep_wall;
  const double deadline = now_s() + o.seconds;
  for (;;) {
    const double a = now_s();
    const std::size_t setup_from = setup_samples.size();
    RepResult u = run_untraced(o, cs, first ? &*first : nullptr, corrupt,
                               cs == nullptr ? &setup_samples : nullptr, tally);
    tally.check(!first || u.counters == first->counters,
                "work counters differ between repetitions");
    sweep.push_back(u.sweep_s);
    vps.push_back(u.sim_vinstr_per_s);
    if (cs != nullptr) setup_samples.push_back(u.setup_s);
    std::fprintf(
        stderr, "rep %zu: setup_s %.9f sweep_s %.4f vinstr/s %.0f\n",
        sweep.size(),
        median(std::vector<double>(
            setup_samples.begin() + static_cast<long>(setup_from),
            setup_samples.end())),
        u.sweep_s, u.sim_vinstr_per_s);
    if (o.trace) {
      TracedRep tr = run_traced(o, cs, &u, corrupt, tally);
      tally.check(tr.rep.counters == u.counters,
                  "traced work counters differ from untraced");
      for (const auto& [k, v] : layer_metrics(tr, tally)) {
        layer_samples[k].push_back(v.first);
        units[k] = v.second;
      }
      traced_sweep.push_back(tr.traced_sweep_s);
      tr.rep.cold.clear();
      tr.rep.warm.clear();
      last_traced = std::move(tr);
    }
    if (!first) first = std::move(u);
    rep_wall.push_back(now_s() - a);
    if (now_s() + median(rep_wall) > deadline) break;
  }

  const Counters& c = first->counters;
  MetricMap metrics;
  if (!o.trace) {
    metrics["sweep_s"] = {median(sweep), "s"};
    metrics["setup_s"] = {median(setup_samples), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["job_ok_ratio"] = {
        static_cast<double>(tally.attempted - tally.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)),
        "ratio"};
    metrics["sim_vinstr_per_s"] = {median(vps), "vinstr/s"};
    metrics["sim_cycles"] = {static_cast<double>(c.cycles), "cycles"};
    metrics["sim_fpu_util"] = {
        c.lane_cycles == 0 ? 0.0
                           : static_cast<double>(c.fpu_result_elems) /
                                 static_cast<double>(c.lane_cycles),
        "ratio"};
  } else {
    for (const auto& [k, v] : layer_samples) metrics[k] = {median(v), units[k]};
    metrics["trace.overhead_ratio"] = {
        median(traced_sweep) / median(sweep), "ratio"};
    write_spans(o.workdir + "/spans.json", *last_traced);
  }

  std::fprintf(stderr,
               "%s seed=%llu: %zu untraced + %zu traced repetition(s), "
               "sweep_s median %.4f, setup_s median %.9f\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               sweep.size(), traced_sweep.size(), median(sweep),
               median(setup_samples));
  const bool correct = tally.failed == 0 && tally.problems.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [k, v] : metrics) {
    out += sep;
    sep = ", ";
    out += "\"" + k + "\": {\"value\": " + fmt_num(v.first) +
           ", \"unit\": \"" + v.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    // No result line: a harness that cannot finish has measured nothing.
    std::fprintf(stderr, "sweepbench_harness: %s\n", e.what());
    return 2;
  }
}

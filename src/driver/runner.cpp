#include "driver/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "common/contracts.hpp"
#include "common/fmt.hpp"
#include "driver/registry.hpp"
#include "machine/machine.hpp"
#include "store/version.hpp"

namespace araxl::driver {

namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

store::JobKey key_for(const Job& job, const RunnerOptions& opts) {
  store::JobKey key;
  key.config = store::canonical_config(job.cfg);
  key.kernel = job.kernel;
  key.bytes_per_lane = job.bytes_per_lane;
  key.seed = job.seed;
  key.version =
      opts.cache_salt.empty() ? store::build_version() : opts.cache_salt;
  return key;
}

// Caching only applies to clean production runs: the oracle-check and the
// corruption test hook must always simulate.
bool cacheable(const RunnerOptions& opts) {
  return opts.store != nullptr && !opts.check_oracle &&
         !opts.corrupt_before_verify;
}

/// Replays a stored result as a JobResult, or nullopt when the entry
/// cannot satisfy this run (e.g. verification is required but the cached
/// run never verified). Replay is projected onto the requested options so
/// a warm run's report is byte-identical to the cold run's.
std::optional<JobResult> replay(const Job& job, const RunnerOptions& opts,
                                const store::StoredResult& hit) {
  if (opts.verify && !hit.verified) return std::nullopt;
  JobResult res;
  res.job = job;
  res.stats = hit.stats;
  res.cache_hit = true;
  if (opts.verify) {
    res.verified = true;
    res.verify = hit.verify;
    res.tolerance = hit.tolerance;
  }
  res.ok = true;
  return res;
}

/// Resets `res` to a clean classified failure (partial successes from a
/// half-run attempt must not leak stats into reports).
void fill_error(JobResult& res, ErrorKind kind, std::string msg) {
  const Job job = res.job;
  res = JobResult{};
  res.job = job;
  res.ok = false;
  res.error_kind = kind;
  res.error = std::move(msg);
}

/// Cancellation policy for one attempt: the sweep-wide shutdown token plus
/// this attempt's wall-clock deadline (captured at attempt start, so each
/// retry gets a fresh budget).
RunControl make_control(const RunnerOptions& opts) {
  RunControl ctl;
  ctl.shutdown = opts.cancel;
  std::function<bool()> deadline;
  if (opts.job_timeout_s > 0.0) {
    std::function<std::uint64_t()> clock =
        opts.clock_ms ? opts.clock_ms : std::function<std::uint64_t()>(steady_ms);
    const std::uint64_t start = clock();
    const std::uint64_t budget_ms =
        static_cast<std::uint64_t>(opts.job_timeout_s * 1000.0);
    deadline = [clock = std::move(clock), start, budget_ms] {
      return clock() - start >= budget_ms;
    };
  }
  if (opts.pulse) {
    // The pulse rides the deadline probe: the engines already call it at
    // the cooperative check cadence, so a lease heartbeat costs no extra
    // polling surface in the timing kernels.
    ctl.deadline_exceeded = [pulse = opts.pulse,
                             deadline = std::move(deadline)] {
      pulse();
      return deadline && deadline();
    };
  } else {
    ctl.deadline_exceeded = std::move(deadline);
  }
  return ctl;
}

/// The injected-hang fault: spin cooperatively until the deadline or a
/// shutdown request fires (both raise SimCancelled) — a deterministic
/// stand-in for a wedged simulation that proves a hung job cannot wedge
/// its worker thread.
[[noreturn]] void hang_cooperatively(const RunnerOptions& opts,
                                     const RunControl& ctl) {
  if (!ctl.enabled()) {
    throw JobError(ErrorKind::kInjected,
                   "injected hang with no deadline or shutdown token "
                   "configured — refusing to hang the worker forever");
  }
  for (;;) {
    ctl.check_now();  // throws when the deadline/shutdown fires
    if (opts.sleep_ms) {
      opts.sleep_ms(1);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

// Runs the job body; throws classified JobErrors (and lets engine-level
// SimCancelled / DeadlockError propagate) so run_attempt can funnel every
// failure kind into the same isolated-failure path.
JobResult execute(const Job& job, const RunnerOptions& opts,
                  const RunControl& ctl) {
  JobResult res;
  res.job = job;

  const KernelRegistry& registry = KernelRegistry::instance();
  try {
    job.cfg.validate();
    (void)registry.at(job.kernel);
  } catch (const ContractViolation& e) {
    throw JobError(ErrorKind::kConfig, e.what());
  }

  MachineConfig cfg = job.cfg;
  if (opts.watchdog_budget != 0) cfg.watchdog_budget = opts.watchdog_budget;
  const RunControl* control = ctl.enabled() ? &ctl : nullptr;

  obs::MetricsRegistry* mx = opts.metrics;
  const std::uint64_t t0 = mx != nullptr ? steady_ns() : 0;

  Machine m(cfg);
  auto kernel = registry.make(job.kernel);
  kernel->seed_inputs(job.seed);
  Program prog;
  try {
    prog = kernel->build(m, job.bytes_per_lane);
  } catch (const FootprintError& e) {
    throw JobError(ErrorKind::kConfig, e.what());
  }
  const std::uint64_t t_built = mx != nullptr ? steady_ns() : 0;

  InstrTrace* trace = nullptr;
  if (opts.capture_trace) {
    res.trace = std::make_shared<InstrTrace>();
    res.trace->enable_markers();
    trace = res.trace.get();
  }
  res.stats = m.run(prog, trace, control, mx);
  if (mx != nullptr) {
    const std::uint64_t t_sim = steady_ns();
    mx->counter("runner.phase.build_ns")->add(t_built - t0);
    mx->counter("runner.phase.simulate_ns")->add(t_sim - t_built);
    mx->counter("runner.jobs_simulated")->inc();
  }

  if (opts.check_oracle) {
    const std::uint64_t t_pre = mx != nullptr ? steady_ns() : 0;
    // The oracle replays the run's own program on a fresh machine holding
    // the same initial memory: the two configs differ only in timing_mode,
    // which no builder reads. The oracle run is deliberately unmetered —
    // its engine counters would double-count every unit cycle against the
    // run under test.
    MachineConfig oracle_cfg = cfg;
    oracle_cfg.timing_mode = TimingMode::kCycleStepped;
    Machine oracle(oracle_cfg);
    kernel->load_inputs(oracle);
    const RunStats oracle_stats = oracle.run(prog, nullptr, control);
    if (mx != nullptr) {
      mx->counter("runner.phase.oracle_ns")->add(steady_ns() - t_pre);
    }
    if (!(res.stats == oracle_stats)) {
      throw JobError(ErrorKind::kOracleDivergence,
                     "event-driven RunStats diverge from the cycle-stepped "
                     "oracle");
    }
  }

  if (opts.corrupt_before_verify) opts.corrupt_before_verify(m, job);

  if (opts.verify) {
    const std::uint64_t t_pre = mx != nullptr ? steady_ns() : 0;
    res.verified = true;
    res.tolerance = kernel->tolerance();
    res.verify = kernel->verify(m);
    if (mx != nullptr) {
      mx->counter("runner.phase.verify_ns")->add(steady_ns() - t_pre);
    }
    if (!res.verify.ok(res.tolerance)) {
      throw JobError(
          ErrorKind::kVerifyFailed,
          strprintf("golden verification failed: max_rel_err=%.3e > tol=%.3e",
                    res.verify.max_rel_err, res.tolerance));
    }
  }
  res.ok = true;
  return res;
}

/// One execution attempt, every failure mode folded into the result:
/// typed JobErrors keep their kind, engine-level cancellations map to
/// timeout/cancelled, a tripped watchdog maps to timeout, and anything
/// else — including non-std::exception throws — is isolated as a
/// simulation-kind failure instead of unwinding into the worker pool
/// (where it would std::terminate the process).
JobResult run_attempt(const Job& job, const RunnerOptions& opts,
                      const store::JobKey& key, const std::string& fp,
                      unsigned attempt) {
  JobResult res;
  res.job = job;
  try {
    if (opts.cancel != nullptr && opts.cancel->requested()) {
      throw SimCancelled(CancelReason::kShutdown,
                         "cancelled before start: shutdown requested");
    }
    if (opts.faults != nullptr && !fp.empty()) {
      const RunControl hang_ctl = make_control(opts);
      switch (opts.faults->job_fault(fp, attempt)) {
        case FaultInjector::JobFault::kTransient:
          throw JobError(ErrorKind::kInjected,
                         strprintf("injected transient job fault (attempt %u)",
                                   attempt));
        case FaultInjector::JobFault::kPermanent:
          throw JobError(ErrorKind::kInjected, "injected permanent job fault");
        case FaultInjector::JobFault::kHang:
          hang_cooperatively(opts, hang_ctl);
        case FaultInjector::JobFault::kNone:
          break;
      }
    }
    if (cacheable(opts)) {
      if (opts.use_cache && !opts.refresh) {
        if (const auto hit = opts.store->find(fp)) {
          if (auto replayed = replay(job, opts, *hit)) {
            if (opts.metrics != nullptr) {
              opts.metrics->counter("runner.cache_hits")->inc();
            }
            return *replayed;
          }
        }
      }
      const RunControl ctl = make_control(opts);
      res = execute(job, opts, ctl);
      store::StoredResult rec;
      rec.fingerprint = fp;
      rec.version = key.version;
      rec.config = key.config;
      rec.label = job.config_label;
      rec.kernel = job.kernel;
      rec.bytes_per_lane = job.bytes_per_lane;
      rec.seed = job.seed;
      rec.stats = res.stats;
      rec.verified = res.verified;
      rec.tolerance = res.tolerance;
      rec.verify = res.verify;
      try {
        const std::uint64_t t_pre = opts.metrics != nullptr ? steady_ns() : 0;
        opts.store->put(std::move(rec));
        opts.store->flush();
        if (opts.metrics != nullptr) {
          opts.metrics->counter("runner.phase.store_ns")
              ->add(steady_ns() - t_pre);
        }
      } catch (const store::StoreIoError& e) {
        // A successfully simulated result is never failed by cache I/O:
        // degrade to cache-off-with-warning (the job is still ok, the
        // sweep summary surfaces the warning, a rerun re-simulates).
        res.store_degraded = true;
        res.store_warning = e.what();
      }
      return res;
    }
    const RunControl ctl = make_control(opts);
    return execute(job, opts, ctl);
  } catch (const SimCancelled& e) {
    fill_error(res,
               e.reason() == CancelReason::kDeadline ? ErrorKind::kTimeout
                                                     : ErrorKind::kCancelled,
               e.what());
  } catch (const JobError& e) {
    fill_error(res, e.kind(), e.what());
  } catch (const DeadlockError& e) {
    fill_error(res, ErrorKind::kTimeout,
               std::string("liveness watchdog: ") + e.what());
  } catch (const store::StoreIoError& e) {
    fill_error(res, ErrorKind::kStoreIo, e.what());
  } catch (const ContractViolation& e) {
    fill_error(res, ErrorKind::kSimulation, e.what());
  } catch (const std::exception& e) {
    fill_error(res, ErrorKind::kSimulation, e.what());
  } catch (...) {
    fill_error(res, ErrorKind::kSimulation,
               "non-std::exception thrown by job (isolated by the runner)");
  }
  return res;
}

}  // namespace

JobResult run_job(const Job& job, const RunnerOptions& opts) {
  JobResult res;
  res.job = job;
  try {
    store::JobKey key;
    std::string fp;
    if (opts.store != nullptr || opts.faults != nullptr) {
      key = key_for(job, opts);
      fp = store::fingerprint(key);
    }
    const unsigned max_attempts = std::max(1u, opts.retry.max_attempts);
    for (unsigned attempt = 1;; ++attempt) {
      res = run_attempt(job, opts, key, fp, attempt);
      res.attempts = attempt;
      if (res.ok || !opts.retry.retryable(res.error_kind) ||
          attempt >= max_attempts) {
        return res;
      }
      if (opts.metrics != nullptr) opts.metrics->counter("runner.retries")->inc();
      // Shutdown pre-empts backoff sleeps: a Ctrl-C must not wait out the
      // exponential schedule before the sweep can wind down.
      if (opts.cancel != nullptr && opts.cancel->requested()) return res;
      const std::uint64_t ms = opts.retry.backoff_jittered(attempt, fp);
      if (opts.sleep_ms) {
        opts.sleep_ms(ms);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
    }
  } catch (const ContractViolation& e) {
    // Fingerprinting an unbuildable config lands here, before any attempt.
    fill_error(res, ErrorKind::kConfig, e.what());
  } catch (const std::exception& e) {
    fill_error(res, ErrorKind::kSimulation, e.what());
  } catch (...) {
    fill_error(res, ErrorKind::kSimulation,
               "non-std::exception thrown by job (isolated by the runner)");
  }
  return res;
}

std::vector<JobResult> run_jobs(const std::vector<Job>& jobs,
                                const RunnerOptions& opts) {
  std::vector<JobResult> results(jobs.size());
  if (jobs.empty()) return results;

  unsigned workers = opts.workers;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, jobs.size()));

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = run_job(jobs[i], opts);
      } catch (...) {
        // run_job isolates everything; this is the last line of defence so
        // a pool thread can never unwind into std::terminate.
        JobResult r;
        r.job = jobs[i];
        r.error_kind = ErrorKind::kSimulation;
        r.error = "internal: run_job threw past its isolation";
        results[i] = std::move(r);
      }
      const std::size_t finished = done.fetch_add(1) + 1;
      if (opts.progress) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        opts.progress(results[i], finished, jobs.size());
      }
    }
  };

  if (workers == 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

std::vector<JobResult> run_sweep(const SweepSpec& spec,
                                 const RunnerOptions& opts) {
  return run_jobs(expand(spec), opts);
}

}  // namespace araxl::driver

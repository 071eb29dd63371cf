// Tests for the experiment-driver subsystem (src/driver/): kernel
// registry coverage, sweep expansion, thread-pooled execution with
// worker-count-independent results, golden-verifier enforcement, failure
// isolation, degenerate (vl==0 / tiny-AVL) jobs, and the reporters'
// golden bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "driver/job.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "isa/program.hpp"
#include "kernels/common.hpp"

namespace araxl::driver {
namespace {

// ---- registry ---------------------------------------------------------------

TEST(Registry, CoversEveryKernelInSrcKernels) {
  // Everything src/kernels/ exports must be sweepable by name.
  std::vector<std::string> expected;
  for (const auto& k : make_all_kernels()) expected.emplace_back(k->name());
  for (const auto& k : make_extension_kernels()) expected.emplace_back(k->name());
  ASSERT_EQ(expected.size(), 9u);

  const KernelRegistry& reg = KernelRegistry::instance();
  for (const std::string& name : expected) {
    const KernelInfo* info = reg.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->default_bpl_grid.empty()) << name;
    const auto made = reg.make(name);
    ASSERT_NE(made, nullptr) << name;
    EXPECT_EQ(made->name(), name);
    EXPECT_EQ(made->max_perf_factor(), info->max_perf_factor) << name;
  }
  // Paper set is the six Table-I kernels, in paper order.
  EXPECT_EQ(reg.paper_names(),
            (std::vector<std::string>{"fmatmul", "fconv2d", "jacobi2d",
                                      "fdotproduct", "exp", "softmax"}));
}

TEST(Registry, RejectsDuplicatesNullsAndUnknownNames) {
  KernelRegistry& reg = KernelRegistry::instance();
  EXPECT_EQ(reg.find("no_such_kernel"), nullptr);
  EXPECT_THROW((void)reg.at("no_such_kernel"), ContractViolation);

  KernelInfo dup;
  dup.name = "fmatmul";
  dup.factory = [] { return make_kernel("fmatmul"); };
  EXPECT_THROW(reg.add(std::move(dup)), ContractViolation);

  KernelInfo null_factory;
  null_factory.name = "null_factory_kernel";
  EXPECT_THROW(reg.add(std::move(null_factory)), ContractViolation);
}

// ---- splittable RNG ---------------------------------------------------------

TEST(RngFork, IndependentOfForkOrderAndParentUse) {
  const Rng master(42);
  Rng a = master.fork(7);

  // Interleave arbitrary other forks and parent-independent copies: the
  // child stream for index 7 must be bit-identical.
  Rng scratch = master.fork(3);
  (void)scratch.next_u64();
  Rng b = master.fork(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  // Distinct streams and distinct bases diverge.
  Rng c = master.fork(8);
  EXPECT_NE(master.fork(7).next_u64(), c.next_u64());
  EXPECT_NE(Rng(1).fork(7).next_u64(), Rng(2).fork(7).next_u64());
}

// ---- expansion --------------------------------------------------------------

SweepSpec small_spec(std::uint64_t base_seed) {
  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8"), parse_config_spec("ara2:8")};
  spec.kernels = {"fdotproduct", "exp", "stream_triad"};
  spec.bytes_per_lane = {64};
  spec.base_seed = base_seed;
  return spec;
}

TEST(Expand, FlattensConfigMajorWithStableSeeds) {
  const std::vector<Job> jobs = expand(small_spec(99));
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].config_label, "araxl:8");
  EXPECT_EQ(jobs[0].kernel, "fdotproduct");
  EXPECT_EQ(jobs[3].config_label, "ara2:8");
  EXPECT_EQ(jobs[5].kernel, "stream_triad");
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].index, i);

  // Seeds are a pure function of (base_seed, index): re-expansion agrees,
  // jobs do not share streams, and base 0 keeps legacy inputs.
  const std::vector<Job> again = expand(small_spec(99));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].seed, again[i].seed);
    EXPECT_NE(jobs[i].seed, 0u);
    seeds.insert(jobs[i].seed);
  }
  EXPECT_EQ(seeds.size(), jobs.size());
  for (const Job& j : expand(small_spec(0))) EXPECT_EQ(j.seed, 0u);
}

TEST(Expand, RejectsUnknownKernelsAndEmptyAxes) {
  SweepSpec spec = small_spec(0);
  spec.kernels.push_back("no_such_kernel");
  EXPECT_THROW((void)expand(spec), ContractViolation);
  spec = small_spec(0);
  spec.bytes_per_lane.clear();
  EXPECT_THROW((void)expand(spec), ContractViolation);
}

// ---- config specs -----------------------------------------------------------

TEST(ConfigSpec, ParsesShapesAndKnobs) {
  EXPECT_EQ(parse_config_spec("araxl:64").cfg.topo.clusters, 16u);
  EXPECT_EQ(parse_config_spec("araxl:8x8").cfg.topo.lanes, 8u);
  EXPECT_EQ(parse_config_spec("ara2:8").cfg.kind, MachineKind::kAra2);

  const ConfigPoint p =
      parse_config_spec("araxl:64:glsu=4:l2=24:vlen=32768:mode=cycle");
  EXPECT_EQ(p.label, "araxl:64:glsu=4:l2=24:vlen=32768:mode=cycle");
  EXPECT_EQ(p.cfg.glsu_regs, 4u);
  EXPECT_EQ(p.cfg.l2_latency, 24u);
  EXPECT_EQ(p.cfg.vlen_bits, 32768u);
  EXPECT_EQ(p.cfg.timing_mode, TimingMode::kCycleStepped);

  for (const char* bad : {"araxl", "araxl:sixty", "frankenmachine:8",
                          "araxl:64:warp=9", "ara2:8x2", "araxl:64:glsu"}) {
    EXPECT_THROW((void)parse_config_spec(bad), ContractViolation) << bad;
  }
}

// ---- reporters: golden bytes ------------------------------------------------

/// A finished job with live provenance (cache_hit, attempts), so the golden
/// rows below show both which fields a report carries and which it zeroes.
JobResult golden_result() {
  JobResult r;
  r.job.index = 7;
  r.job.config_label = "araxl:8";
  r.job.cfg = MachineConfig::araxl(8);
  r.job.kernel = "exp";
  r.job.bytes_per_lane = 64;
  r.job.seed = 42;
  r.ok = true;
  // Every RunStats word distinct and non-zero: 1001, 1002, ... in member
  // order, which is address order.
  std::vector<std::uint64_t*> words;
  for (const StatField& f : kRunStatsFields) {
    for (std::uint64_t& w : f.words(r.stats)) words.push_back(&w);
  }
  std::ranges::sort(words);
  std::uint64_t next = 1001;
  for (std::uint64_t* w : words) *w = next++;
  r.verified = true;
  r.tolerance = 1e-12;
  r.verify.checked = 512;
  r.verify.max_rel_err = 3.0000000000000004e-13;
  r.cache_hit = true;
  r.attempts = 3;
  return r;
}

// The byte-identity tests elsewhere compare two runs of one build; these
// pin the format itself, so a renamed, reordered or dropped column fails.
TEST(Report, JsonRecordMatchesGoldenBytes) {
  const JobResult r = golden_result();
  const std::string head =
      R"({"index":7,"kernel":"exp","bytes_per_lane":64,"seed":42,)"
      R"("cache_hit":false,"attempts":)";
  const std::string config =
      R"(,"config":{"label":"araxl:8",)"
      R"("name":"8L-AraXL","kind":"araxl","clusters":2,"lanes_per_cluster":4,)"
      R"("total_lanes":8,"vlen_bits":8192,"timing_mode":"event-driven",)"
      R"("reqi_regs":0,"glsu_regs":0,"ring_regs":0,"l2_latency":12},"ok":true,)"
      R"("status":"ok","stats":{"cycles":1001,"vinstrs":1003,"scalar_ops":1004,)"
      R"("flops":1005,"fpu_result_elems":1006,"mem_read_bytes":1007,)"
      R"("mem_write_bytes":1008,"issue_stall_cycles":1009,)"
      R"("scalar_wait_cycles":1010,"unit_busy_elems":{"none":1011,"fpu":1012,)"
      R"("alu":1013,"load":1014,"store":1015,"sldu":1016,"masku":1017},)";
  const std::string tail =
      R"("fpu_util":0.0010029890269411226,"flop_per_cycle":1.0039960039960041},)"
      R"("ppa":{"freq_ghz":1.3999999999999999,"area_mm2":1.3633327500000001,)"
      R"("power_w":0.31865525487207402,"gflops":1.4055944055944056,)"
      R"("gflops_per_w":4.4110190687383755},"verify":{"checked":512,)"
      R"("max_rel_err":3.0000000000000003e-13,)"
      R"("tolerance":9.9999999999999998e-13}})";
  EXPECT_EQ(json_record(r),
            head + "0" + config +
                R"("wakeups_total":0,"batched_iterations":0,)"
                R"("batch_rejects":{"addr_progression":0,"liveness_gate":0,)"
                R"("snapshot_mismatch":0,"vl_tail":0,"grant_change":0},)"
                R"("batch_clamps":0,"warmup_projected":0,)"
                R"("stall_cycles":{"issue_pressure":0,"raw_dependency":0,)"
                R"("structural_unit":0,"mem_latency":0,"mem_bandwidth":0,)"
                R"("reduction_slide_latency":0,"drain_tail":0},)"
                R"("fpu_busy_slots":0,)" +
                tail);
  ReportOptions live;
  live.live_provenance = true;
  EXPECT_EQ(json_record(r, live),
            head + "3" + config +
                R"("wakeups_total":1026,"batched_iterations":1027,)"
                R"("batch_rejects":{"addr_progression":1028,"liveness_gate":1029,)"
                R"("snapshot_mismatch":1030,"vl_tail":1031,"grant_change":1032},)"
                R"("batch_clamps":1034,"warmup_projected":1033,)"
                R"("stall_cycles":{"issue_pressure":1018,"raw_dependency":1019,)"
                R"("structural_unit":1020,"mem_latency":1021,"mem_bandwidth":1022,)"
                R"("reduction_slide_latency":1023,"drain_tail":1024},)"
                R"("fpu_busy_slots":1025,)" +
                tail);
}

TEST(Report, CsvRowMatchesGoldenBytes) {
  const JobResult r = golden_result();
  const std::string tail =
      "araxl,2,4,8,8192,1,ok,1001,1005,0.0010029890269411226,"
      "1.0039960039960041,1.3999999999999999,1.3633327500000001,"
      "0.31865525487207402,1.4055944055944056,4.4110190687383755,"
      "3.0000000000000003e-13,\"\"\n";
  EXPECT_EQ(csv_row(r), "7,araxl:8,exp,64,42,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
                        "0,0,0,0," + tail);
  ReportOptions live;
  live.live_provenance = true;
  EXPECT_EQ(csv_row(r, live),
            "7,araxl:8,exp,64,42,0,3,1026,1027,1028,1029,1030,1031,1032,"
            "1034,1033,1018,1019,1020,1021,1022,1023,1024,1025," + tail);
}

// ---- runner: determinism across worker counts -------------------------------

TEST(Runner, SweepReportsByteIdenticalFor1And8Workers) {
  const SweepSpec spec = small_spec(42);

  RunnerOptions serial;
  serial.workers = 1;
  const std::vector<JobResult> r1 = run_sweep(spec, serial);

  RunnerOptions pooled;
  pooled.workers = 8;
  const std::vector<JobResult> r8 = run_sweep(spec, pooled);

  ASSERT_EQ(r1.size(), 6u);
  for (const JobResult& r : r1) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(to_json(r1), to_json(r8));
  EXPECT_EQ(to_csv(r1), to_csv(r8));
}

TEST(Runner, ProgressReportsEveryJobExactlyOnce) {
  const SweepSpec spec = small_spec(0);
  RunnerOptions opts;
  opts.workers = 4;
  std::set<std::size_t> seen;
  std::size_t max_done = 0;
  opts.progress = [&](const JobResult& r, std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 6u);
    EXPECT_TRUE(seen.insert(r.job.index).second);
    EXPECT_GE(done, max_done);  // done counts are monotone under the lock
    max_done = done;
  };
  (void)run_sweep(spec, opts);
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(max_done, 6u);
}

// ---- runner: golden verifiers + failure isolation ---------------------------

TEST(Runner, GoldenVerifierCatchesInjectedCorruptionIsolated) {
  // exp verifies from memory; corrupting the machine's memory after the
  // run but before verification must fail that job — and only that job.
  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8")};
  spec.kernels = {"fdotproduct", "exp", "stream_triad"};
  spec.bytes_per_lane = {64};

  RunnerOptions opts;
  opts.workers = 2;
  opts.corrupt_before_verify = [](Machine& m, const Job& job) {
    if (job.kernel == "exp") m.mem().fill(0x55);
  };
  const std::vector<JobResult> results = run_sweep(spec, opts);
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    if (r.job.kernel == "exp") {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("verification failed"), std::string::npos)
          << r.error;
    } else {
      EXPECT_TRUE(r.ok) << r.job.kernel << ": " << r.error;
    }
  }
  // The failed job still reports provenance in both report formats.
  const std::string json = to_json(results);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("verification failed"), std::string::npos);
  EXPECT_NE(to_csv(results).find("verification failed"), std::string::npos);
}

TEST(Runner, InvalidConfigJobIsIsolatedNotFatal) {
  // Hand-build jobs so one carries a config that fails validate(): the
  // bad job must error out while its neighbours complete.
  std::vector<Job> jobs(2);
  jobs[0].index = 0;
  jobs[0].config_label = "good";
  jobs[0].cfg = MachineConfig::araxl(8);
  jobs[0].kernel = "stream_triad";
  jobs[0].bytes_per_lane = 64;
  jobs[1] = jobs[0];
  jobs[1].index = 1;
  jobs[1].config_label = "bad";
  jobs[1].cfg.topo.clusters = 3;  // not a power of two

  RunnerOptions opts;
  opts.workers = 2;
  const std::vector<JobResult> results = run_jobs(jobs, opts);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
}

// ---- degenerate jobs --------------------------------------------------------

/// Synthetic kernel whose program runs with vl == 0: vsetvli grants zero
/// elements, the load/compute/store bodies must all retire as no-ops.
class Vl0ProbeKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "vl0_probe"; }
  [[nodiscard]] double max_perf_factor() const override { return 0.0; }
  [[nodiscard]] Lmul lmul(std::uint64_t) const override { return kLmul1; }

  Program build(Machine& m, std::uint64_t) override {
    ProgramBuilder pb(m.config().effective_vlen(), "vl0_probe");
    const std::uint64_t addr = 1u << 20;
    pb.vsetvli(0, Sew::k64, kLmul1);
    pb.vle(1, addr);
    pb.vfadd_vf(2, 1, 1.0);
    pb.vse(2, addr + 4096);
    return pb.take();
  }

  [[nodiscard]] std::uint64_t useful_flops() const override { return 0; }

  [[nodiscard]] VerifyResult verify(const Machine&) const override {
    return VerifyResult{};  // nothing to check; the run completing is the test
  }
};

TEST(Runner, ZeroVlAndTinyAvlJobsRunClean) {
  KernelRegistry& reg = KernelRegistry::instance();
  if (reg.find("vl0_probe") == nullptr) {
    KernelInfo info;
    info.name = "vl0_probe";
    info.factory = [] { return std::make_unique<Vl0ProbeKernel>(); };
    info.default_bpl_grid = {8};
    info.extension = true;  // keep paper_names() stable for other tests
    reg.add(std::move(info));
  }

  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8"), parse_config_spec("ara2:8")};
  spec.kernels = reg.names();  // every registered kernel, probe included
  spec.bytes_per_lane = {8};   // tiny AVL: one element per lane
  RunnerOptions opts;
  opts.workers = 4;
  for (const JobResult& r : run_sweep(spec, opts)) {
    EXPECT_TRUE(r.ok) << r.job.config_label << "/" << r.job.kernel << ": "
                      << r.error;
    if (r.job.kernel == "vl0_probe") {
      EXPECT_EQ(r.stats.flops, 0u);
      EXPECT_EQ(r.stats.mem_read_bytes, 0u);
      EXPECT_EQ(r.stats.mem_write_bytes, 0u);
    }
  }
}

// ---- differential oracle at sweep scale -------------------------------------

TEST(Runner, OracleCheckConfirmsEventEngineOnDriverJobs) {
  SweepSpec spec;
  spec.configs = {parse_config_spec("araxl:8"),
                  parse_config_spec("araxl:16:glsu=4:reqi=1:ring=1")};
  spec.kernels = {"fdotproduct", "softmax"};
  spec.bytes_per_lane = {64};
  spec.base_seed = 7;  // fresh inputs, not the legacy fixed ones
  RunnerOptions opts;
  opts.workers = 4;
  opts.check_oracle = true;
  for (const JobResult& r : run_sweep(spec, opts)) {
    EXPECT_TRUE(r.ok) << r.job.config_label << "/" << r.job.kernel << ": "
                      << r.error;
  }
}

}  // namespace
}  // namespace araxl::driver

// Tests for the persistent result store (src/store/): canonical job
// fingerprints, JSONL round trips, corruption-tolerant loading, the
// runner's cache consultation, and shard/merge determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/fmt.hpp"
#include "driver/job.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "store/fingerprint.hpp"
#include "store/json.hpp"
#include "store/merge.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"

namespace araxl::store {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + "araxl_store_test_" + name + ".jsonl";
}

JobKey key_of(const MachineConfig& cfg, const char* kernel, std::uint64_t bpl,
              std::uint64_t seed, const std::string& version = "v-test") {
  return JobKey{canonical_config(cfg), kernel, bpl, seed, version};
}

// ---- fingerprints -----------------------------------------------------------

TEST(Fingerprint, SemanticallyIdenticalConfigsHashIdentically) {
  const MachineConfig base = MachineConfig::araxl(16);

  // An explicit VLEN equal to the paper's configuration rule is the same
  // machine as vlen_bits = 0.
  MachineConfig explicit_vlen = base;
  explicit_vlen.vlen_bits = base.effective_vlen();
  EXPECT_EQ(canonical_config(base), canonical_config(explicit_vlen));

  // The two timing engines are bit-identical by contract, so either
  // engine's result serves both.
  MachineConfig oracle = base;
  oracle.timing_mode = TimingMode::kCycleStepped;
  EXPECT_EQ(canonical_config(base), canonical_config(oracle));

  EXPECT_EQ(fingerprint(key_of(base, "exp", 64, 7)),
            fingerprint(key_of(explicit_vlen, "exp", 64, 7)));
}

TEST(Fingerprint, EveryKeyFieldChangesTheHash) {
  const MachineConfig base = MachineConfig::araxl(16);
  const std::string fp = fingerprint(key_of(base, "exp", 64, 7));

  // Machine knobs.
  for (int knob = 0; knob < 6; ++knob) {
    MachineConfig mod = base;
    switch (knob) {
      case 0: mod.glsu_regs = 4; break;
      case 1: mod.reqi_regs = 1; break;
      case 2: mod.l2_latency = 24; break;
      case 3: mod.vlen_bits = 8192; break;
      case 4: mod.topo = Topology{8, 4}; break;
      // Hierarchy is results-affecting (group hops, tree depths): the same
      // 16 lanes split 2x2x4 must fingerprint differently from 4x4 flat.
      case 5: mod.topo = Topology{2, 4, 2}; break;
    }
    EXPECT_NE(fp, fingerprint(key_of(mod, "exp", 64, 7))) << "knob " << knob;
  }
  // Kernel / size / seed / salt.
  EXPECT_NE(fp, fingerprint(key_of(base, "softmax", 64, 7)));
  EXPECT_NE(fp, fingerprint(key_of(base, "exp", 128, 7)));
  EXPECT_NE(fp, fingerprint(key_of(base, "exp", 64, 8)));
  EXPECT_NE(fp, fingerprint(key_of(base, "exp", 64, 7, "v-other")));
}

// ---- canonical_config coverage ---------------------------------------------
//
// The contract "every results-affecting MachineConfig field appears in
// canonical_config" used to live only in a ROADMAP note. This probe turns
// it into a compile-time tripwire: it counts the aggregate's fields via
// brace-initializability, so growing MachineConfig (or Topology) without
// revisiting the serialization fails this test until the counts — and, for
// a serialized field, canonical_config + kConfigSchemaVersion — are
// updated together.
struct AnyField {
  template <class T>
  constexpr operator T() const;  // NOLINT(google-explicit-constructor)
};

template <class T, std::size_t N>
constexpr bool brace_constructible_with =
    []<std::size_t... I>(std::index_sequence<I...>) {
      return requires { T{((void)I, AnyField{})...}; };
    }(std::make_index_sequence<N>{});

template <class T, std::size_t N = 0>
constexpr std::size_t aggregate_field_count() {
  if constexpr (!brace_constructible_with<T, N + 1>) {
    return N;
  } else {
    return aggregate_field_count<T, N + 1>();
  }
}

TEST(CanonicalConfig, EveryMachineConfigFieldIsSerializedOrExempt) {
  // Keys emitted by canonical_config (store/fingerprint.cpp): kind +
  // clusters/lanes/groups (the whole Topology) + vlen + mem + the 16
  // latency/shape knobs => 20 top-level members covered.
  constexpr std::size_t kSerializedMembers = 20;
  // Explicitly exempt members, each with a reason that must stay true:
  //  * timing_mode      — the two engines are bit-identical by contract;
  //  * watchdog_budget  — liveness-failure policy, never changes the
  //                       RunStats of a run that completes.
  constexpr std::size_t kExemptMembers = 2;

  static_assert(aggregate_field_count<MachineConfig>() ==
                    kSerializedMembers + kExemptMembers,
                "MachineConfig grew or lost a field: update "
                "store::canonical_config (and bump kConfigSchemaVersion) or "
                "the exempt list above, then fix these counts");
  // Topology is serialized as one member above but must itself stay in
  // sync: all three levels are covered by clusters/lanes/groups keys.
  static_assert(aggregate_field_count<Topology>() == 3,
                "Topology grew a field: serialize it in canonical_config, "
                "bump kConfigSchemaVersion, and update this count");

  // The keys themselves must actually appear in the serialization.
  const std::string canon = canonical_config(MachineConfig::araxl(8));
  for (const char* key :
       {"kind=", "clusters=", "lanes=", "groups=", "vlen=", "mem=", "reqi=",
        "glsu=", "ring=", "fpu_lat=", "alu_lat=", "sldu_lat=", "load_lag=",
        "div=", "start=", "uq=", "sq=", "dcache=", "l2=", "red_step=",
        "red_add=", "wb="}) {
    EXPECT_NE(canon.find(key), std::string::npos) << key;
  }
}

TEST(Fingerprint, CanonicalFormIsStableAcrossCalls) {
  const MachineConfig cfg = MachineConfig::ara2(8);
  EXPECT_EQ(canonical_config(cfg), canonical_config(cfg));
  EXPECT_EQ(fingerprint(key_of(cfg, "exp", 64, 0)),
            fingerprint(key_of(cfg, "exp", 64, 0)));
  // 32 lowercase hex characters.
  const std::string fp = fingerprint(key_of(cfg, "exp", 64, 0));
  ASSERT_EQ(fp.size(), 32u);
  for (const char c : fp) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

// ---- store round trip -------------------------------------------------------

StoredResult sample_record(const char* kernel, std::uint64_t bpl,
                           const std::string& version = "v-test") {
  StoredResult r;
  r.config = canonical_config(MachineConfig::araxl(8));
  r.label = "araxl:8";
  r.kernel = kernel;
  r.bytes_per_lane = bpl;
  r.seed = 42;
  r.version = version;
  r.fingerprint = fingerprint(
      JobKey{r.config, r.kernel, r.bytes_per_lane, r.seed, r.version});
  r.stats.cycles = 12345;
  r.stats.total_lanes = 8;
  r.stats.vinstrs = 99;
  r.stats.flops = 1u << 20;
  r.stats.fpu_result_elems = 777;
  r.stats.mem_read_bytes = 4096;
  r.stats.unit_busy_elems[1] = 31337;
  r.stats.stall_cycles[0] = 11;
  r.stats.stall_cycles[4] = 2222;
  r.stats.fpu_busy_slots = 424242;
  r.stats.wakeups_total = 5150;
  r.stats.batched_iterations = 640;
  r.stats.batch_rejects[2] = 3;
  r.stats.batch_clamps = 2;
  r.stats.warmup_projected = 1;
  r.verified = true;
  r.tolerance = 1e-12;
  r.verify.checked = 512;
  r.verify.max_rel_err = 3.0000000000000004e-13;  // exercises %.17g round trip
  return r;
}

/// Every RunStats word set to a distinct non-zero value (1001, 1002, ... in
/// member order), so a dropped, swapped or zeroed field shows in the golden
/// bytes below.
RunStats every_word_stats() {
  RunStats s;
  std::vector<std::uint64_t*> words;
  for (const StatField& f : kRunStatsFields) {
    for (std::uint64_t& w : f.words(s)) words.push_back(&w);
  }
  std::ranges::sort(words);  // address order is member order
  std::uint64_t next = 1001;
  for (std::uint64_t* w : words) *w = next++;
  return s;
}

TEST(ResultStoreTest, SerializedLineMatchesGoldenBytes) {
  // Pins the on-disk format itself: round-trip tests only compare one
  // build with itself, so they cannot see a key rename or a reordering
  // that would orphan every record already on disk.
  StoredResult r = sample_record("exp", 64);
  r.stats = every_word_stats();
  const std::string expect =
      R"({"fp":"46213340d7064a23692b7aad7b4a97be","version":"v-test",)"
      R"("config":"cfg-v2;kind=araxl;clusters=2;lanes=4;groups=1;vlen=8192;)"
      R"(mem=67108864;reqi=0;glsu=0;ring=0;fpu_lat=5;alu_lat=2;sldu_lat=3;)"
      R"(load_lag=3;div=12;start=4;uq=4;sq=8;dcache=3;l2=12;red_step=4;)"
      R"(red_add=8;wb=2",)"
      R"("label":"araxl:8","kernel":"exp","bpl":64,"seed":42,)"
      R"("stats":{"cycles":1001,"total_lanes":1002,"vinstrs":1003,)"
      R"("scalar_ops":1004,"flops":1005,"fpu_result_elems":1006,)"
      R"("mem_read_bytes":1007,"mem_write_bytes":1008,"issue_stall_cycles":1009,)"
      R"("scalar_wait_cycles":1010,"unit_busy_elems":[1011,1012,1013,1014,1015,)"
      R"(1016,1017],"wakeups_total":1026,"batched_iterations":1027,)"
      R"("batch_rejects":[1028,1029,1030,1031,1032],"batch_clamps":1034,)"
      R"("warmup_projected":1033,"stall_cycles":[1018,1019,1020,1021,1022,1023,)"
      R"(1024],"fpu_busy_slots":1025},"verified":true,)"
      R"("tolerance":9.9999999999999998e-13,"checked":512,)"
      R"("max_rel_err":3.0000000000000003e-13,"check":"081cc2cc0bf3065e"})";
  EXPECT_EQ(ResultStore::serialize(r), expect);
}

/// Every word of `a` and `b` agrees, provenance included (operator==
/// compares measurements only).
void expect_same_words(const RunStats& a, const RunStats& b) {
  for (const StatField& f : kRunStatsFields) {
    EXPECT_TRUE(std::ranges::equal(f.words(a), f.words(b))) << f.key;
  }
}

TEST(ResultStoreTest, RoundTripsThroughDisk) {
  const std::string path = temp_path("roundtrip");
  std::remove(path.c_str());
  {
    ResultStore store(path);
    EXPECT_EQ(store.size(), 0u);
    store.put(sample_record("exp", 64));
    store.put(sample_record("softmax", 128));
    store.flush();
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.load_report().loaded, 2u);
  EXPECT_EQ(store.load_report().bad_lines, 0u);

  const StoredResult expect = sample_record("exp", 64);
  const auto hit = store.find(expect.fingerprint);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kernel, "exp");
  EXPECT_EQ(hit->label, "araxl:8");
  expect_same_words(hit->stats, expect.stats);
  EXPECT_TRUE(hit->verified);
  EXPECT_EQ(hit->tolerance, expect.tolerance);
  EXPECT_EQ(hit->verify.checked, expect.verify.checked);
  EXPECT_EQ(hit->verify.max_rel_err, expect.verify.max_rel_err);
  EXPECT_FALSE(store.find("no-such-fingerprint").has_value());
  std::remove(path.c_str());
}

TEST(ResultStoreTest, SerializedLineRoundTripsExactly) {
  const StoredResult r = sample_record("exp", 64);
  const std::string line = ResultStore::serialize(r);
  const StoredResult back = ResultStore::deserialize(line);
  EXPECT_EQ(ResultStore::serialize(back), line);
  expect_same_words(back.stats, r.stats);
}

TEST(ResultStoreTest, LoadSkipsCorruptTruncatedAndTamperedLines) {
  const std::string path = temp_path("corrupt");
  const std::string good1 = ResultStore::serialize(sample_record("exp", 64));
  const std::string good2 = ResultStore::serialize(sample_record("softmax", 64));

  // A line whose stats were edited after writing: checksum fails.
  std::string tampered = ResultStore::serialize(sample_record("jacobi2d", 64));
  const std::size_t pos = tampered.find("\"cycles\":12345");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 14, "\"cycles\":99999");

  // A record whose provenance was re-keyed (fingerprint no longer matches
  // its own fields) but whose checksum is freshly valid.
  StoredResult rekeyed = sample_record("fdotproduct", 64);
  rekeyed.bytes_per_lane = 4096;  // fingerprint still claims bpl=64
  const std::string mismatched = ResultStore::serialize(rekeyed);

  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << good1 << "\n";
    f << "this is not json\n";
    f << good2.substr(0, good2.size() / 2) << "\n";  // truncated mid-record
    f << tampered << "\n";
    f << mismatched << "\n";
    f << good2 << "\n";
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 2u);  // good1 + good2 survive
  const LoadReport& lr = store.load_report();
  EXPECT_EQ(lr.lines, 6u);
  EXPECT_EQ(lr.loaded, 2u);
  EXPECT_EQ(lr.bad_lines, 3u);       // garbage, truncated, checksum-tampered
  EXPECT_EQ(lr.fp_mismatches, 1u);   // re-keyed provenance
  EXPECT_TRUE(store.find(sample_record("exp", 64).fingerprint).has_value());
  EXPECT_TRUE(store.find(sample_record("softmax", 64).fingerprint).has_value());
  // The tampered jacobi2d entry must be recomputed, i.e. not served.
  EXPECT_FALSE(store.find(sample_record("jacobi2d", 64).fingerprint).has_value());
  std::remove(path.c_str());
}

/// `line` with `cut` erased from its body and the checksum recomputed, the
/// way an older build would have sealed it.
std::string reseal_without(const std::string& line, std::string_view cut) {
  std::string body = line.substr(0, line.rfind(R"(,"check":)")) + "}";
  const std::size_t at = body.find(cut);
  EXPECT_NE(at, std::string::npos) << cut;
  body.erase(at, cut.size());
  const std::string check = strprintf(
      "%016llx", static_cast<unsigned long long>(hash64(body)));
  return body.insert(body.size() - 1, R"(,"check":")" + check + "\"");
}

TEST(ResultStoreTest, PreTelemetryRecordsLoadWithZeroTelemetry) {
  // A record from before the engine telemetry and the stall taxonomy:
  // everything from wakeups_total to the end of "stats" is absent. Those
  // fields read as 0; a missing seed-era field (cycles) is a bad line.
  const std::string line = ResultStore::serialize(sample_record("exp", 64));
  const std::size_t from = line.find(R"(,"wakeups_total":)");
  const std::string telemetry = line.substr(from, line.find('}', from) - from);
  const std::string old_line = reseal_without(line, telemetry);
  RunStats expect = sample_record("exp", 64).stats;
  for (const StatField& f : kRunStatsFields) {
    if (f.tolerant()) std::ranges::fill(f.words(expect), 0);
  }
  expect_same_words(ResultStore::deserialize(old_line).stats, expect);

  const std::string path = temp_path("pretelemetry");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << old_line << "\n" << reseal_without(old_line, R"("cycles":12345,)") << "\n";
  }
  ResultStore store(path);
  EXPECT_EQ(store.load_report().loaded, 1u);
  EXPECT_EQ(store.load_report().bad_lines, 1u);
  std::remove(path.c_str());
}

TEST(ResultStoreTest, LaterDuplicateSupersedesEarlier) {
  const std::string path = temp_path("dup");
  StoredResult old_rec = sample_record("exp", 64);
  old_rec.stats.cycles = 1;
  // Rewriting stats does not change the fingerprint (same key fields).
  StoredResult new_rec = sample_record("exp", 64);
  new_rec.stats.cycles = 2;
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << ResultStore::serialize(old_rec) << "\n";
    f << ResultStore::serialize(new_rec) << "\n";
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.load_report().superseded, 1u);
  EXPECT_EQ(store.find(new_rec.fingerprint)->stats.cycles, 2u);
  std::remove(path.c_str());
}

TEST(ResultStoreTest, IndependentWritersOnOneFileDoNotClobber) {
  // Two shard processes sharing one store file: each opens its own
  // ResultStore, computes disjoint jobs, and flushes. Appends interleave
  // at line granularity, so neither writer loses the other's records.
  const std::string path = temp_path("two_writers");
  std::remove(path.c_str());
  ResultStore a(path);
  ResultStore b(path);  // opened before a wrote anything (both see empty)
  a.put(sample_record("exp", 64));
  a.flush();
  b.put(sample_record("softmax", 64));
  b.flush();
  a.put(sample_record("exp", 128));
  a.flush();

  ResultStore merged(path);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.load_report().bad_lines, 0u);
  EXPECT_TRUE(merged.find(sample_record("exp", 64).fingerprint).has_value());
  EXPECT_TRUE(merged.find(sample_record("softmax", 64).fingerprint).has_value());
  EXPECT_TRUE(merged.find(sample_record("exp", 128).fingerprint).has_value());
  std::remove(path.c_str());
}

TEST(ResultStoreTest, GcDropsOnlyStaleVersions) {
  const std::string path = temp_path("gc");
  std::remove(path.c_str());
  ResultStore store(path);
  store.put(sample_record("exp", 64, "v-old"));
  store.put(sample_record("exp", 128, "v-new"));
  store.put(sample_record("softmax", 64, "v-new"));
  EXPECT_EQ(store.gc("v-new"), 1u);  // compacts the file itself

  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  for (const StoredResult& r : reloaded.entries()) {
    EXPECT_EQ(r.version, "v-new");
  }
  std::remove(path.c_str());
}

// ---- runner integration -----------------------------------------------------

driver::SweepSpec small_spec() {
  driver::SweepSpec spec;
  spec.configs = {driver::parse_config_spec("araxl:8"),
                  driver::parse_config_spec("ara2:8")};
  spec.kernels = {"fdotproduct", "stream_triad"};
  spec.bytes_per_lane = {64};
  spec.base_seed = 11;
  return spec;
}

TEST(RunnerCache, WarmRunReplaysEverythingByteIdentically) {
  const std::string path = temp_path("runner");
  std::remove(path.c_str());
  ResultStore store(path);

  driver::RunnerOptions opts;
  opts.workers = 2;
  opts.store = &store;
  opts.cache_salt = "v-test";

  const auto cold = driver::run_sweep(small_spec(), opts);
  ASSERT_EQ(cold.size(), 4u);
  for (const auto& r : cold) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.cache_hit);
  }
  EXPECT_EQ(store.size(), 4u);

  // Reopen from disk (a second process / a resumed sweep).
  ResultStore warm_store(path);
  EXPECT_EQ(warm_store.size(), 4u);
  opts.store = &warm_store;
  const auto warm = driver::run_sweep(small_spec(), opts);
  for (const auto& r : warm) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.cache_hit);
    EXPECT_TRUE(r.verified);
  }
  // Deterministic reports: byte-identical cold vs warm, in both formats.
  EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));
  EXPECT_EQ(driver::to_csv(cold), driver::to_csv(warm));
  // The provenance mode *does* distinguish simulated from replayed.
  driver::ReportOptions live;
  live.live_cache_flags = true;
  EXPECT_NE(driver::to_json(cold, live), driver::to_json(warm, live));
  std::remove(path.c_str());
}

TEST(RunnerCache, RefreshAndNoCacheBypassReplay) {
  const std::string path = temp_path("refresh");
  std::remove(path.c_str());
  ResultStore store(path);

  driver::RunnerOptions opts;
  opts.store = &store;
  opts.cache_salt = "v-test";
  (void)driver::run_sweep(small_spec(), opts);

  opts.refresh = true;
  for (const auto& r : driver::run_sweep(small_spec(), opts)) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.cache_hit);  // recomputed and overwritten
  }
  opts.refresh = false;
  opts.use_cache = false;
  for (const auto& r : driver::run_sweep(small_spec(), opts)) {
    EXPECT_FALSE(r.cache_hit);  // write-only mode never replays
  }
  std::remove(path.c_str());
}

TEST(RunnerCache, StaleSaltAndUnverifiedEntriesAreRecomputed) {
  const std::string path = temp_path("salt");
  std::remove(path.c_str());
  ResultStore store(path);

  // Populate without verification under an old build salt.
  driver::RunnerOptions opts;
  opts.store = &store;
  opts.verify = false;
  opts.cache_salt = "v-old";
  (void)driver::run_sweep(small_spec(), opts);

  // New build: nothing may be served.
  opts.cache_salt = "v-new";
  for (const auto& r : driver::run_sweep(small_spec(), opts)) {
    EXPECT_FALSE(r.cache_hit);
  }
  // Same salt but verification now required: the unverified entries
  // cannot satisfy it, so jobs simulate (and re-store verified results).
  opts.cache_salt = "v-old";
  opts.verify = true;
  for (const auto& r : driver::run_sweep(small_spec(), opts)) {
    EXPECT_FALSE(r.cache_hit);
    EXPECT_TRUE(r.verified);
  }
  // ...after which the verified record satisfies both modes.
  for (const auto& r : driver::run_sweep(small_spec(), opts)) {
    EXPECT_TRUE(r.cache_hit);
  }
  opts.verify = false;
  for (const auto& r : driver::run_sweep(small_spec(), opts)) {
    EXPECT_TRUE(r.cache_hit);
    EXPECT_FALSE(r.verified);  // projected onto the requested options
  }
  std::remove(path.c_str());
}

TEST(RunnerCache, OracleCheckAlwaysSimulates) {
  const std::string path = temp_path("oracle");
  std::remove(path.c_str());
  ResultStore store(path);
  driver::RunnerOptions opts;
  opts.store = &store;
  opts.cache_salt = "v-test";
  (void)driver::run_sweep(small_spec(), opts);

  opts.check_oracle = true;
  for (const auto& r : driver::run_sweep(small_spec(), opts)) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.cache_hit);  // differential mode must really simulate
  }
  std::remove(path.c_str());
}

// ---- sharding + merge -------------------------------------------------------

TEST(ShardMergeDeterminism, MergedShardReportsAreByteIdentical) {
  const driver::SweepSpec spec = small_spec();
  driver::RunnerOptions opts;
  opts.workers = 2;

  const std::vector<driver::Job> all = driver::expand(spec);
  const auto full = driver::run_jobs(all, opts);
  const std::string full_json = driver::to_json(full);
  const std::string full_csv = driver::to_csv(full);

  for (const unsigned shards : {1u, 4u}) {
    std::vector<std::string> json_docs;
    std::vector<std::string> csv_docs;
    for (unsigned i = 1; i <= shards; ++i) {
      const auto slice =
          driver::filter_shard(all, driver::ShardSpec{i, shards});
      const auto results = driver::run_jobs(slice, opts);
      json_docs.push_back(driver::to_json(results));
      csv_docs.push_back(driver::to_csv(results));
    }
    EXPECT_EQ(merge_json_reports(json_docs), full_json) << shards << " shards";
    EXPECT_EQ(merge_csv_reports(csv_docs), full_csv) << shards << " shards";
  }
}

TEST(ShardMergeDeterminism, ShardsPartitionTheJobList) {
  const std::vector<driver::Job> all = driver::expand(small_spec());
  std::vector<bool> seen(all.size(), false);
  for (unsigned i = 1; i <= 3; ++i) {
    for (const driver::Job& j :
         driver::filter_shard(all, driver::ShardSpec{i, 3})) {
      EXPECT_FALSE(seen[j.index]);
      seen[j.index] = true;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_TRUE(seen[i]) << i;
  EXPECT_THROW(
      (void)driver::filter_shard(all, driver::ShardSpec{5, 3}),
      ContractViolation);
  EXPECT_THROW((void)driver::parse_shard_spec("0/4"), ContractViolation);
  EXPECT_THROW((void)driver::parse_shard_spec("nope"), ContractViolation);
  EXPECT_EQ(driver::parse_shard_spec("2/4").index, 2u);
}

TEST(ShardMergeDeterminism, MergeRejectsGapsAndConflicts) {
  const driver::SweepSpec spec = small_spec();
  driver::RunnerOptions opts;
  const std::vector<driver::Job> all = driver::expand(spec);

  const auto s1 = driver::to_json(driver::run_jobs(
      driver::filter_shard(all, driver::ShardSpec{1, 2}), opts));
  const auto s2 = driver::to_json(driver::run_jobs(
      driver::filter_shard(all, driver::ShardSpec{2, 2}), opts));

  // Missing shard → gap in the index space.
  EXPECT_THROW((void)merge_json_reports({s1}), ContractViolation);
  // Duplicate identical shard is idempotent; merge still completes.
  EXPECT_EQ(merge_json_reports({s1, s2, s2}),
            merge_json_reports({s1, s2}));
  // Conflicting record for the same index is rejected.
  std::string forged = s2;
  const std::size_t pos = forged.find("\"cycles\":");
  ASSERT_NE(pos, std::string::npos);
  forged.replace(pos, 10, "\"cycles\":4");
  EXPECT_THROW((void)merge_json_reports({s1, s2, forged}), ContractViolation);
}

// ---- json reader ------------------------------------------------------------

TEST(Json, ParsesAndRejects) {
  const JsonValue v = parse_json(
      R"({"a":1,"b":[true,null,"x\n"],"c":{"d":18446744073709551615}})");
  EXPECT_EQ(v.get("a")->as_u64(), 1u);
  EXPECT_EQ(v.get("b")->items.size(), 3u);
  EXPECT_TRUE(v.get("b")->items[0].as_bool());
  EXPECT_EQ(v.get("b")->items[2].as_string(), "x\n");
  // Full 64-bit integers survive (a double-typed parser would round).
  EXPECT_EQ(v.get("c")->get("d")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.get("missing"), nullptr);

  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "{}junk", "1e"}) {
    EXPECT_THROW((void)parse_json(bad), ContractViolation) << bad;
  }
}

/// The message of the ContractViolation `read` throws, without the
/// "contract violation: " prefix and the source-location suffix.
template <typename Read>
std::string error_text(Read&& read) {
  try {
    read();
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    const std::string prefix = "contract violation: ";
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    return what.substr(prefix.size(), what.rfind(" [") - prefix.size());
  }
  return "(no error)";
}

TEST(Json, ErrorTextIsExact) {
  // One case per parser error kind, offsets included: these messages are
  // what `araxl` prints for a malformed report or ledger.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"a":)", "JSON error at offset 5: unexpected end of input"},
      {"", "JSON error at offset 0: unexpected end of input"},
      {"{}junk", "JSON error at offset 2: trailing characters after JSON value"},
      // An unexpected character reports the offset before the whitespace.
      {R"({"a" 1})", "JSON error at offset 4: expected ':'"},
      {"[1 2]", "JSON error at offset 3: expected ','"},
      {R"({"a":1, x})", "JSON error at offset 7: expected '\"'"},
      {"[tru]", "JSON error at offset 1: bad literal (expected true)"},
      {"fals", "JSON error at offset 0: bad literal (expected false)"},
      {"nul", "JSON error at offset 0: bad literal (expected null)"},
      {R"({"a":})", "JSON error at offset 5: expected a value"},
      {R"("abc)", "JSON error at offset 4: unterminated string"},
      {R"("\)", "JSON error at offset 2: unterminated escape"},
      {R"("\u12")", "JSON error at offset 3: truncated \\u escape"},
      {R"("\u12g4")", "JSON error at offset 6: bad \\u escape"},
      {R"("\q")", "JSON error at offset 3: unknown escape"},
      {"1e", "bad JSON number: '1e'"},
      {"[1-2]", "bad JSON number: '1-2'"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(error_text([&] { (void)parse_json(text); }), message) << text;
  }
  EXPECT_EQ(error_text([] { (void)parse_json("-1").as_u64(); }),
            "JSON number is not an unsigned integer: '-1'");
  JsonValue junk;
  junk.kind = JsonValue::Kind::kNumber;
  junk.text = "12x";
  EXPECT_EQ(error_text([&] { (void)junk.as_double(); }),
            "bad JSON number: '12x'");
}

TEST(Json, AcceptsExactlyTheSpellingsStrtodConsumesWhole) {
  // Every string of up to five characters over the number alphabet: the
  // parser accepts it iff strtod() consumes all of it.
  const std::string alphabet = "0.eE+-";
  std::vector<std::string> level = {""};
  for (int len = 1; len <= 5; ++len) {
    std::vector<std::string> next;
    for (const std::string& prefix : level) {
      for (const char c : alphabet) next.push_back(prefix + c);
    }
    for (const std::string& s : next) {
      char* end = nullptr;
      (void)std::strtod(s.c_str(), &end);
      const bool whole = end == s.c_str() + s.size();
      bool parsed = true;
      try {
        (void)parse_json(s);
      } catch (const ContractViolation&) {
        parsed = false;
      }
      EXPECT_EQ(parsed, whole) << s;
    }
    level = std::move(next);
  }
}

TEST(Json, StatsReaderTakesTheFirstMemberOfANameInAnyOrder) {
  // read_stats_fields matches members in one pass; like JsonValue::get it
  // takes the first member of a name, wherever the writer put it.
  const RunStats s = every_word_stats();
  std::string fields;
  append_stats_fields(fields, s, StatsForm::kStore);
  JsonValue obj = parse_json("{" + fields + "}");
  std::reverse(obj.fields.begin(), obj.fields.end());
  expect_same_words(read_stats_fields(obj, StatsForm::kStore), s);

  const RunStats late = read_stats_fields(
      parse_json("{" + fields + R"(,"cycles":7,"junk":1})"), StatsForm::kStore);
  EXPECT_EQ(late.cycles, s.cycles);
  const RunStats early = read_stats_fields(
      parse_json(R"({"cycles":7,)" + fields + "}"), StatsForm::kStore);
  EXPECT_EQ(early.cycles, 7u);
  EXPECT_EQ(early.total_lanes, s.total_lanes);
}

TEST(ResultStoreTest, OneFlippedByteCostsExactlyOneLine) {
  // Flip the low bit of every byte of one record in turn: each damaged
  // store loads with exactly one more bad line and the same provenance
  // and supersede counts.
  StoredResult rekeyed = sample_record("fdotproduct", 64);
  rekeyed.bytes_per_lane = 4096;
  const std::string victim = ResultStore::serialize(sample_record("exp", 64));
  const std::string tail =
      ResultStore::serialize(sample_record("softmax", 64)) + "\n" +
      ResultStore::serialize(rekeyed) + "\n" +
      ResultStore::serialize(sample_record("softmax", 64)) + "\n";
  const std::string path = temp_path("flipped");
  for (std::size_t i = 0; i <= victim.size(); ++i) {
    std::string line = victim;
    if (i < victim.size()) line[i] ^= 1;
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << line << "\n" << tail;
    }
    const ResultStore store(path);
    const LoadReport& lr = store.load_report();
    const std::size_t bad = i < victim.size() ? 1 : 0;  // last: intact
    EXPECT_EQ(lr.lines, 4u) << i;
    EXPECT_EQ(lr.bad_lines, bad) << i;
    EXPECT_EQ(lr.fp_mismatches, 1u) << i;
    EXPECT_EQ(lr.superseded, 1u) << i;
    EXPECT_EQ(lr.loaded, 2u - bad) << i;
  }
  std::remove(path.c_str());
}

TEST(Version, SaltIncludesGitRevisionAndSchema) {
  const std::string v = build_version();
  EXPECT_NE(v.find("+schema"), std::string::npos);
  EXPECT_EQ(v, std::string(git_revision()) + "+schema" +
                   std::to_string(kConfigSchemaVersion));
}

}  // namespace
}  // namespace araxl::store

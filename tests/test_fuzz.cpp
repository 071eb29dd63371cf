// Deterministic mutation fuzzing of every reader of untrusted bytes: the
// JSON parser, store records and store files, ledger and lease lines and
// files, report merging, the JSON-report analysis reader, and the config
// and fault-injection spec parsers. Golden lines
// are damaged by bit flips, byte inserts and deletes, truncation, `\u`
// escape edits and number edits, driven by splitmix64. Every case must
// either return or throw ContractViolation; any other exception (or a
// sanitizer report in the ASan+UBSan CI job) is a failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.hpp"
#include "common/contracts.hpp"
#include "common/faults.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/spec.hpp"
#include "serve/lease.hpp"
#include "serve/ledger.hpp"
#include "store/fingerprint.hpp"
#include "store/json.hpp"
#include "store/merge.hpp"
#include "store/result_store.hpp"

namespace araxl {
namespace {

constexpr int kCases = 1500;  // per golden text and reader

struct SplitMix64 {
  std::uint64_t x;
  std::uint64_t next() {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// A random number-like token: edge spellings and alphabet soup.
std::string number_token(SplitMix64& rng) {
  static const char* const kEdge[] = {
      "",   "-",   "+1",  ".5",   "1e",  "1e+", "1e999", "-0", "1.5e-3",
      "0x10", "1-2", "NaN", "inf", "18446744073709551616",
      "99999999999999999999999999", "-1", "1.", "--1"};
  if (rng.below(2) == 0) return kEdge[rng.below(std::size(kEdge))];
  static constexpr std::string_view kAlphabet = "0123456789.eE+-";
  std::string t;
  for (std::size_t n = 1 + rng.below(8); n > 0; --n) {
    t += kAlphabet[rng.below(kAlphabet.size())];
  }
  return t;
}

/// Applies one to three random mutations to `s`.
std::string mutate(std::string s, SplitMix64& rng) {
  static const char* const kEscapes[] = {"\\u", "\\u0",   "\\u00e9", "\\uD800",
                                         "\\uzzzz", "\\u12", "\\uFFFF", "\\"};
  static constexpr std::string_view kSyntax = "{}[],:\"\\ \t0123456789eE+-.u";
  for (std::size_t n = 1 + rng.below(3); n > 0; --n) {
    const std::size_t at = rng.below(s.size() + 1);
    switch (rng.below(6)) {
      case 0:  // bit flip
        if (!s.empty()) {
          s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1: {  // byte insert: syntax-significant half the time
        const char c = rng.below(2) == 0
                           ? kSyntax[rng.below(kSyntax.size())]
                           : static_cast<char>(rng.below(256));
        s.insert(at, 1, c);
        break;
      }
      case 2:  // byte delete
        if (at < s.size()) s.erase(at, 1);
        break;
      case 3:  // truncation
        s.resize(at);
        break;
      case 4:  // \u escape edit
        s.insert(at, kEscapes[rng.below(std::size(kEscapes))]);
        break;
      default: {  // number edit: replace the next digit run
        std::size_t from = s.find_first_of("0123456789", at);
        if (from == std::string::npos) from = s.find_first_of("0123456789");
        if (from == std::string::npos) break;
        std::size_t to = from;
        while (to < s.size() && s[to] >= '0' && s[to] <= '9') ++to;
        s.replace(from, to - from, number_token(rng));
        break;
      }
    }
  }
  return s;
}

/// Recomputes a checked line's check field so the damage reaches the
/// schema readers behind the checksum.
std::string reseal(const std::string& line) {
  const std::size_t marker = line.rfind(store::kCheckMarker);
  if (marker == std::string::npos) return line;
  return store::with_check(line.substr(0, marker) + "}");
}

template <typename Read>
void expect_total(const char* reader, const std::string& input, Read&& read) {
  try {
    read();
  } catch (const ContractViolation&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader << " threw a non-contract exception (" << e.what()
                  << ") on: " << input;
  } catch (...) {
    ADD_FAILURE() << reader << " threw a non-exception on: " << input;
  }
}

/// Runs `read` on kCases mutants of `golden`, half of them resealed.
template <typename Read>
void fuzz_lines(const char* reader, const std::string& golden,
                std::uint64_t seed, Read&& read) {
  SplitMix64 rng{seed};
  for (int i = 0; i < kCases; ++i) {
    std::string m = mutate(golden, rng);
    if (i % 2 == 1) m = reseal(m);
    expect_total(reader, m, [&] { read(m); });
  }
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "araxl_fuzz_" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
}

store::StoredResult store_record(const char* kernel, std::uint64_t bpl) {
  store::StoredResult r;
  r.config = store::canonical_config(MachineConfig::araxl(8));
  r.label = "araxl:8\t\"quoted\"";
  r.kernel = kernel;
  r.bytes_per_lane = bpl;
  r.seed = 42;
  r.version = "v-fuzz";
  r.fingerprint = store::fingerprint(
      store::JobKey{r.config, r.kernel, r.bytes_per_lane, r.seed, r.version});
  r.stats.cycles = 12345;
  r.stats.total_lanes = 8;
  r.stats.flops = 1u << 20;
  r.stats.unit_busy_elems[1] = 31337;
  r.stats.stall_cycles[4] = 2222;
  r.verified = true;
  r.tolerance = 1e-10;
  r.verify.checked = 64;
  r.verify.max_rel_err = 3.5e-17;
  return r;
}

std::vector<driver::JobResult> report_results() {
  std::vector<driver::JobResult> rs;
  for (std::size_t i = 0; i < 2; ++i) {
    driver::JobResult r;
    r.job.index = i;
    r.job.config_label = i == 0 ? "araxl:8" : "ara2:8";
    r.job.cfg = i == 0 ? MachineConfig::araxl(8) : MachineConfig::ara2(8);
    r.job.kernel = "fdotproduct";
    r.job.bytes_per_lane = 64;
    r.ok = true;
    r.stats.cycles = 1000 + i;
    r.stats.total_lanes = 8;
    r.stats.flops = 4000;
    r.stats.fpu_result_elems = 2000;
    r.verified = true;
    r.verify.checked = 8;
    rs.push_back(r);
  }
  return rs;
}

serve::LedgerSpec ledger_spec() {
  serve::LedgerSpec spec;
  spec.configs = {"araxl:8", "ara2:8"};
  spec.kernels = {"stream_triad"};
  spec.bytes_per_lane = {64};
  spec.verify = true;
  spec.version = "fuzz-salt";
  spec.jobs = 2;
  return spec;
}

serve::DoneRecord done_record(std::uint64_t job) {
  const std::vector<driver::JobResult> rs = report_results();
  serve::DoneRecord rec;
  rec.job = job;
  rec.fingerprint = "fp-" + std::to_string(job);
  rec.worker = "w1";
  rec.status = "ok";
  rec.attempts = 1;
  rec.duration_ms = 10;
  rec.json_record = driver::json_record(rs[job], driver::ReportOptions{});
  rec.csv_row = driver::csv_row(rs[job], driver::ReportOptions{});
  return rec;
}

TEST(Fuzz, JsonParserIsTotal) {
  const std::string store_line =
      store::ResultStore::serialize(store_record("exp", 64));
  const std::string report = driver::to_json(report_results());
  const std::string lease = serve::serialize_lease(
      serve::Lease{3, "worker \"a\"", 2, 1000, 3000});
  std::uint64_t seed = 1;
  for (const std::string& golden :
       {store_line, report, lease, serve::serialize_header(ledger_spec()),
        serve::serialize_done(done_record(1)),
        std::string(R"({"a":[1,-2.5e+3,true,false,null,"é\n"],"b":{}})")}) {
    ASSERT_NO_THROW((void)store::parse_json(golden)) << golden;
    fuzz_lines("parse_json", golden, seed++, [](const std::string& m) {
      const store::JsonValue v = store::parse_json(m);
      // Typed access to whatever parsed must stay total too.
      for (const auto& [key, field] : v.fields) {
        if (field.kind != store::JsonValue::Kind::kNumber) continue;
        try {
          (void)field.as_u64();
        } catch (const ContractViolation&) {
        }
        (void)field.as_double();
      }
    });
  }
}

TEST(Fuzz, StoreRecordReaderIsTotal) {
  const std::string golden =
      store::ResultStore::serialize(store_record("exp", 64));
  ASSERT_NO_THROW((void)store::ResultStore::deserialize(golden));
  fuzz_lines("ResultStore::deserialize", golden, 11,
             [](const std::string& m) {
               (void)store::ResultStore::deserialize(m);
             });
}

TEST(Fuzz, DamagedStoreFileLoads) {
  std::string file;
  for (const char* kernel : {"exp", "axpy", "exp"}) {
    file += store::ResultStore::serialize(store_record(kernel, 64));
    file += '\n';
  }
  const std::string path = temp_path("store.jsonl");
  SplitMix64 rng{12};
  for (int i = 0; i < kCases / 5; ++i) {
    const std::string damaged = mutate(file, rng);
    write_file(path, damaged);
    expect_total("ResultStore load", damaged, [&] {
      const store::ResultStore s(path);
      const store::LoadReport& r = s.load_report();
      EXPECT_EQ(r.lines, r.loaded + r.bad_lines + r.fp_mismatches +
                             r.superseded);
    });
  }
  std::remove(path.c_str());
}

TEST(Fuzz, LedgerAndLeaseReadersAreTotal) {
  fuzz_lines("parse_header", serve::serialize_header(ledger_spec()), 21,
             [](const std::string& m) { (void)serve::parse_header(m); });
  fuzz_lines("parse_done", serve::serialize_done(done_record(0)), 22,
             [](const std::string& m) { (void)serve::parse_done(m); });
  fuzz_lines("parse_lease",
             serve::serialize_lease(serve::Lease{3, "w1", 2, 1000, 3000}), 23,
             [](const std::string& m) { (void)serve::parse_lease(m); });

  const std::string ledger = serve::serialize_header(ledger_spec()) + "\n" +
                             serve::serialize_done(done_record(0)) + "\n" +
                             serve::serialize_done(done_record(1)) + "\n";
  const std::string ledger_path = temp_path("ledger.jsonl");
  const std::string lease_dir = temp_path("leases");
  serve::ensure_lease_dir(lease_dir);
  const std::string lease =
      serve::serialize_lease(serve::Lease{0, "w1", 2, 1000, 3000}) + "\n";
  SplitMix64 rng{24};
  for (int i = 0; i < kCases / 5; ++i) {
    const std::string damaged = mutate(ledger, rng);
    write_file(ledger_path, damaged);
    expect_total("ledger_load", damaged, [&] {
      const serve::LedgerLoad led = serve::ledger_load(ledger_path);
      if (led.complete()) (void)serve::ledger_report_json(led);
    });
    const std::string bad_lease = mutate(lease, rng);
    write_file(serve::lease_path(lease_dir, 0), bad_lease);
    expect_total("read_lease", bad_lease,
                 [&] { (void)serve::read_lease(lease_dir, 0); });
  }
  std::remove(ledger_path.c_str());
  std::remove(serve::lease_path(lease_dir, 0).c_str());
  std::remove(lease_dir.c_str());
}

TEST(Fuzz, ReportMergeAndAnalysisReadersAreTotal) {
  const std::vector<driver::JobResult> rs = report_results();
  const std::string json = driver::to_json(rs);
  const std::string csv = driver::to_csv(rs);
  ASSERT_EQ(store::merge_json_reports({json}), json);
  ASSERT_EQ(analysis::dataset_from_json_report(json, analysis::RowFilter{})
                .rows.size(),
            2u);
  fuzz_lines("merge_json_reports", json, 31, [&](const std::string& m) {
    (void)store::merge_json_reports({m, json});
  });
  fuzz_lines("merge_csv_reports", csv, 32, [&](const std::string& m) {
    (void)store::merge_csv_reports({m, csv});
  });
  fuzz_lines("dataset_from_json_report", json, 33, [](const std::string& m) {
    (void)analysis::dataset_from_json_report(m, analysis::RowFilter{});
  });
}

TEST(Fuzz, ConfigAndFaultSpecParsersAreTotal) {
  // Parse only: a mutated config spec may name a huge machine, so no
  // machine is built from one.
  const char* const kConfigs[] = {"araxl:64", "ara2:16", "araxl:8x8", "araxl:4x8x4",
                                  "araxl:128:groups=8",
                                  "araxl:64:glsu=4:l2=24:vlen=32768:mode=cycle"};
  std::uint64_t seed = 41;
  for (const char* spec : kConfigs) {
    ASSERT_NO_THROW((void)driver::parse_config_spec(spec)) << spec;
    fuzz_lines("parse_config_spec", spec, seed++, [](const std::string& m) {
      (void)driver::parse_config_spec(m);
    });
  }
  const char* const kFaults[] = {
      "seed=7,store.write=0.2,job=0.3@2", "seed=1,job.fail=1,job.hang=0.4",
      "store.open=0.5,store.rename=1,ledger.open=0.1,ledger.write=0.25",
      "seed=18446744073709551615,lease.claim=0,lease.renew=0.75,job=1"};
  for (const char* spec : kFaults) {
    ASSERT_NO_THROW(FaultInjector{spec}) << spec;
    fuzz_lines("FaultInjector", spec, seed++,
               [](const std::string& m) { FaultInjector{m}; });
  }
}

}  // namespace
}  // namespace araxl

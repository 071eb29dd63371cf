// Analysis-layer tests: dataset construction from both sources (result
// store, merged JSON report), the canonical-config round trip into the
// PPA models, filtering, and the determinism contract — the artifact
// bundle must be byte-identical regardless of input order, and every
// figure must be structurally valid SVG/CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

#include "analysis/analysis.hpp"
#include "analysis/svg.hpp"
#include "common/contracts.hpp"
#include "driver/job.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "ppa/area_model.hpp"
#include "ppa/freq_model.hpp"
#include "store/fingerprint.hpp"

namespace araxl {
namespace {

using analysis::Artifact;
using analysis::Dataset;
using analysis::RowFilter;
using store::StoredResult;

/// A synthetic store entry whose stall partition tiles the slot universe
/// with dyadic fractions, so CSV fractions re-sum to exactly 1.0.
StoredResult entry(const MachineConfig& cfg, const std::string& label,
                   const std::string& kernel, std::uint64_t bpl,
                   std::uint64_t cycles) {
  StoredResult r;
  r.config = store::canonical_config(cfg);
  r.label = label;
  r.kernel = kernel;
  r.bytes_per_lane = bpl;
  r.seed = 0;
  r.version = "v-test";
  r.stats.cycles = cycles;
  r.stats.total_lanes = cfg.total_lanes();
  r.stats.flops = cycles * cfg.total_lanes();  // flop/cycle = lanes
  r.stats.fpu_result_elems = cycles * cfg.total_lanes() / 2;
  const std::uint64_t universe = cycles * cfg.total_lanes() * 8;
  r.stats.fpu_busy_slots = universe / 2;
  r.stats.stall_cycles = {universe / 4,   universe / 8,   universe / 16,
                          universe / 32,  universe / 64,  universe / 128,
                          universe / 128};
  return r;
}

std::vector<StoredResult> sample_entries() {
  std::vector<StoredResult> es;
  es.push_back(entry(MachineConfig::araxl(8), "araxl:8", "exp", 64, 1024));
  es.push_back(entry(MachineConfig::araxl(8), "araxl:8", "axpy", 64, 2048));
  es.push_back(entry(MachineConfig::araxl(64), "araxl:64", "exp", 64, 512));
  es.push_back(entry(MachineConfig::ara2(8), "ara2:8", "exp", 64, 4096));
  return es;
}

TEST(Analysis, CanonicalConfigRoundTripsIntoPpaModels) {
  // dataset_from_store reconstructs the MachineConfig from its canonical
  // serialization; the derived PPA numbers must match the models applied
  // to the original config.
  const MachineConfig cfg = MachineConfig::araxl(64);
  const Dataset ds =
      dataset_from_store(sample_entries(), "v-test", RowFilter{});
  const auto it =
      std::find_if(ds.rows.begin(), ds.rows.end(),
                   [](const analysis::Row& r) { return r.label == "araxl:64"; });
  ASSERT_NE(it, ds.rows.end());
  EXPECT_EQ(it->freq_ghz, FreqModel().freq_ghz(cfg));
  EXPECT_EQ(it->area_mm2, AreaModel().total_mm2(cfg));
  EXPECT_EQ(it->vlen_bits, cfg.effective_vlen());
  EXPECT_EQ(it->family, "araxl");
  EXPECT_EQ(it->stats.total_lanes, 64u);
}

TEST(Analysis, DatasetSortsFiltersAndDropsForeignVersions) {
  std::vector<StoredResult> es = sample_entries();
  es.push_back(entry(MachineConfig::araxl(16), "araxl:16", "exp", 64, 256));
  es.back().version = "v-other";

  const Dataset all = dataset_from_store(es, "v-test", RowFilter{});
  ASSERT_EQ(all.rows.size(), 4u);  // the v-other record is not comparable
  // Sorted by (total_lanes, label, kernel, ...).
  EXPECT_EQ(all.rows[0].label, "ara2:8");
  EXPECT_EQ(all.rows[1].kernel, "axpy");
  EXPECT_EQ(all.rows[2].kernel, "exp");
  EXPECT_EQ(all.rows[3].label, "araxl:64");

  RowFilter f;
  f.kernels = {"exp"};
  f.configs = {"araxl"};
  const Dataset filtered = dataset_from_store(es, "v-test", f);
  ASSERT_EQ(filtered.rows.size(), 2u);
  for (const analysis::Row& r : filtered.rows) {
    EXPECT_EQ(r.kernel, "exp");
    EXPECT_EQ(r.family, "araxl");
  }
}

TEST(Analysis, ReportIsByteIdenticalUnderInputShuffle) {
  // The determinism contract: the artifact bundle depends only on the set
  // of records, never on store order (worker count, shard interleaving).
  std::vector<StoredResult> fwd = sample_entries();
  std::vector<StoredResult> rev = fwd;
  std::reverse(rev.begin(), rev.end());

  const std::vector<Artifact> a =
      build_report(dataset_from_store(fwd, "v-test", RowFilter{}));
  const std::vector<Artifact> b =
      build_report(dataset_from_store(rev, "v-test", RowFilter{}));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].content, b[i].content) << a[i].name;
  }
}

TEST(Analysis, ArtifactBundleIsStructurallyValid) {
  const std::vector<Artifact> arts =
      build_report(dataset_from_store(sample_entries(), "v-test", RowFilter{}));
  const char* expected[] = {
      "summary.txt",     "report.csv",         "pareto_perf_w.csv",
      "pareto_perf_w.svg", "pareto_perf_mm2.csv", "pareto_perf_mm2.svg",
      "scaling.csv",     "scaling.svg",        "stalls.csv",
      "stalls.svg",      "soa_landscape.csv",  "soa_landscape.svg",
  };
  ASSERT_EQ(arts.size(), std::size(expected));
  for (std::size_t i = 0; i < arts.size(); ++i) {
    EXPECT_EQ(arts[i].name, expected[i]);
    EXPECT_FALSE(arts[i].content.empty());
    const std::string& name = arts[i].name;
    const std::string& body = arts[i].content;
    // Machine-readable artifacts may not leak unformatted floating-point
    // garbage. (summary.txt is exempt: "dominant" contains "nan".)
    if (name != "summary.txt") {
      EXPECT_EQ(body.find("nan"), std::string::npos) << name;
      EXPECT_EQ(body.find("inf"), std::string::npos) << name;
    }
    if (name.size() > 4 && name.substr(name.size() - 4) == ".svg") {
      EXPECT_EQ(body.rfind("<svg ", 0), 0u) << name;
      EXPECT_EQ(body.substr(body.size() - 7), "</svg>\n") << name;
    }
    if (name.size() > 4 && name.substr(name.size() - 4) == ".csv") {
      // Header line plus at least one data row.
      EXPECT_GE(std::count(body.begin(), body.end(), '\n'), 2) << name;
    }
  }
}

TEST(Analysis, StallFractionsTileUnityExactly) {
  // The synthetic entries partition the slot universe into dyadic
  // fractions, so the emitted per-group fractions must re-sum to exactly
  // 1.0 — the attribution partition identity surviving the CSV round trip.
  const std::vector<Artifact> arts =
      build_report(dataset_from_store(sample_entries(), "v-test", RowFilter{}));
  const auto it = std::find_if(arts.begin(), arts.end(), [](const Artifact& a) {
    return a.name == "stalls.csv";
  });
  ASSERT_NE(it, arts.end());
  std::size_t rows = 0;
  std::size_t pos = it->content.find('\n') + 1;  // skip header
  while (pos < it->content.size()) {
    const std::size_t end = it->content.find('\n', pos);
    const std::string line = it->content.substr(pos, end - pos);
    pos = end + 1;
    // Skip the two leading label fields, then sum the 8 fractions.
    std::size_t field_start = line.find(',', line.find(',') + 1) + 1;
    double sum = 0.0;
    while (field_start <= line.size()) {
      sum += std::strtod(line.c_str() + field_start, nullptr);
      const std::size_t next = line.find(',', field_start);
      if (next == std::string::npos) break;
      field_start = next + 1;
    }
    EXPECT_EQ(sum, 1.0) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 4u);  // one group per (label, kernel)
}

TEST(Analysis, JsonReportPathConsumesDriverOutput) {
  // End-to-end through the driver's own JSON writer: what `araxl sweep
  // --json` emits, `araxl report --from-json` must consume.
  driver::SweepSpec spec;
  spec.configs.push_back({"araxl:8", MachineConfig::araxl(8)});
  spec.kernels = {"fdotproduct"};
  spec.bytes_per_lane = {64};
  const std::vector<driver::JobResult> results =
      driver::run_sweep(spec, driver::RunnerOptions{});
  const Dataset ds =
      analysis::dataset_from_json_report(driver::to_json(results), RowFilter{});
  ASSERT_EQ(ds.rows.size(), 1u);
  EXPECT_EQ(ds.rows[0].label, "araxl:8");
  EXPECT_EQ(ds.rows[0].kernel, "fdotproduct");
  EXPECT_GT(ds.rows[0].gflops, 0.0);
  EXPECT_GT(ds.rows[0].stats.cycles, 0u);
  // PPA numbers ride the report verbatim — the JSON path never re-derives
  // them from a config it does not have.
  EXPECT_GT(ds.rows[0].freq_ghz, 0.0);
  EXPECT_GT(ds.rows[0].area_mm2, 0.0);
  const std::vector<Artifact> arts = build_report(ds);
  EXPECT_EQ(arts.size(), 12u);
}

TEST(Analysis, JsonReportReaderToleratesPreTelemetryRecords) {
  // A default report from before the engine telemetry and the stall
  // taxonomy: "stats" ends at unit_busy_elems. The missing fields read as
  // 0; a record without a seed-era field (cycles) is rejected.
  driver::JobResult r;
  r.job.config_label = "araxl:8";
  r.job.cfg = MachineConfig::araxl(8);
  r.job.kernel = "fdotproduct";
  r.ok = true;
  r.stats.cycles = 1000;
  r.stats.total_lanes = 8;
  r.stats.vinstrs = 40;
  r.stats.flops = 4000;
  r.stats.fpu_result_elems = 2000;
  r.stats.unit_busy_elems[1] = 2000;
  std::string doc = driver::to_json({r});
  const std::size_t from = doc.find(R"(,"wakeups_total":)");
  doc.erase(from, doc.find(R"(,"fpu_util":)") - from);
  ASSERT_EQ(doc.find(R"("stall_cycles")"), std::string::npos);

  const Dataset ds = analysis::dataset_from_json_report(doc, RowFilter{});
  ASSERT_EQ(ds.rows.size(), 1u);
  EXPECT_TRUE(ds.rows[0].stats == r.stats);

  doc.erase(doc.find(R"("cycles":1000,)"), std::string_view(R"("cycles":1000,)").size());
  EXPECT_THROW((void)analysis::dataset_from_json_report(doc, RowFilter{}),
               ContractViolation);
}

TEST(Analysis, JsonReportReaderNamesEachMissingKey) {
  // Every key the reader needs, removed in turn, is a contract error that
  // names it (it used to dereference a null member).
  driver::JobResult r;
  r.job.config_label = "araxl:8";
  r.job.cfg = MachineConfig::araxl(8);
  r.job.kernel = "fdotproduct";
  r.job.bytes_per_lane = 64;
  r.ok = true;
  r.stats.cycles = 1000;
  r.stats.total_lanes = 8;
  const std::string doc = driver::to_json({r});
  ASSERT_EQ(analysis::dataset_from_json_report(doc, RowFilter{}).rows.size(),
            1u);
  for (const std::string path :
       {"config.label", "config.kind", "config.vlen_bits", "config.total_lanes",
        "kernel", "bytes_per_lane", "seed", "ppa.freq_ghz", "ppa.area_mm2",
        "ppa.power_w", "ppa.gflops", "ppa.gflops_per_w"}) {
    const std::string key = "\"" + path.substr(path.find('.') + 1) + "\":";
    std::string cut = doc;
    const std::size_t at = cut.find(key);
    ASSERT_NE(at, std::string::npos) << path;
    ASSERT_EQ(cut.find(key, at + 1), std::string::npos) << path;
    const std::size_t end = cut.find_first_of(",}", at);
    // Take the comma after the member, or the one before it when last.
    if (cut[end] == ',') {
      cut.erase(at, end + 1 - at);
    } else {
      cut.erase(at - 1, end - at + 1);
    }
    try {
      (void)analysis::dataset_from_json_report(cut, RowFilter{});
      ADD_FAILURE() << "no error without " << path;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("missing '" + path + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

/// 2 families x 2 kernels x 2 B/lane with irregular counters, so every
/// derived double needs all 17 significant digits somewhere.
std::vector<StoredResult> golden_entries() {
  std::vector<StoredResult> es;
  const std::pair<MachineConfig, const char*> configs[] = {
      {MachineConfig::araxl(16), "araxl:16"}, {MachineConfig::ara2(8), "ara2:8"}};
  std::uint64_t k = 0;
  for (const auto& [cfg, label] : configs) {
    for (const char* kernel : {"fmatmul", "softmax"}) {
      for (const std::uint64_t bpl : {64u, 256u}) {
        ++k;
        StoredResult r = entry(cfg, label, kernel, bpl, 1000 + 137 * k * k);
        const std::uint64_t universe =
            r.stats.cycles * r.stats.total_lanes * 8;
        r.seed = 7 * k;
        r.stats.flops = r.stats.flops * 5 / 7 + k;
        r.stats.fpu_result_elems = r.stats.fpu_result_elems * 2 / 3 + k;
        r.stats.fpu_busy_slots = universe / 3;
        for (std::size_t i = 0; i < kNumStallReasons; ++i) {
          r.stats.stall_cycles[i] = (universe - universe / 3) / (i + 3) + k;
        }
        r.stats.batched_iterations = 11 * k;
        r.stats.batch_clamps = k % 3;
        r.stats.warmup_projected = k / 2;
        es.push_back(r);
      }
    }
  }
  return es;
}

TEST(Analysis, ReportBundleMatchesGoldenBytes) {
  // Pins every byte of all 12 artifacts (tests/golden/report_bundle/). The
  // other tests compare two renders of one build; this one catches a
  // reformatted number, column or SVG attribute. On a mismatch the actual
  // bytes are written next to the test's temp files for diffing.
  const std::vector<Artifact> arts =
      build_report(dataset_from_store(golden_entries(), "v-test", RowFilter{}));
  ASSERT_EQ(arts.size(), 12u);
  const std::string dir =
      std::string(ARAXL_SOURCE_DIR) + "/tests/golden/report_bundle/";
  for (const Artifact& a : arts) {
    std::ifstream f(dir + a.name, std::ios::binary);
    const std::string golden((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
    if (a.content != golden) {
      const std::string out = testing::TempDir() + "report_bundle_" + a.name;
      std::ofstream(out, std::ios::binary) << a.content;
      ADD_FAILURE() << a.name << " differs from its golden bytes; actual in "
                    << out;
    }
  }
}

TEST(Analysis, SvgEscapeHandlesMarkup) {
  EXPECT_EQ(analysis::svg_escape("a<b&\"c\">"), "a&lt;b&amp;&quot;c&quot;&gt;");
}

}  // namespace
}  // namespace araxl

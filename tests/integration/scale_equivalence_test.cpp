/// Grid-equivalence suite for alert::scale (docs/SCALE.md): the spatial
/// grid is the one neighbour index, and on fields wide enough for
/// range-sized cells it must reproduce the brute-force linear scan it
/// replaced. The scan is gone from the program, so each scenario pins the
/// determinism digest, event count and run-manifest bytes its linear-scan
/// run produced — across mobility models, fault injection and ARQ. A
/// 10k-node run additionally proves the grid holds up at arena scale with
/// a clean packet ledger, and a dense paper-field run pins the neighbour
/// tables' upkeep at ~150 entries per table.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario_codec.hpp"
#include "crypto/sha1.hpp"
#include "obs/manifest.hpp"
#include "scale/spatial_grid.hpp"

namespace alert {
namespace {

/// 8 radio ranges across: range-sized cells (an 8 x 8 grid), so nearly
/// every query spans several cells and takes the dedup-and-sort path.
constexpr util::Rect kWideField{0.0, 0.0, 2000.0, 2000.0};

/// Serialize the run's observable outcome the way the figure campaigns do:
/// digest + metrics + a result series in one RunManifest JSON document,
/// minus the build's `version` field (it names the commit, not the run).
std::string manifest_bytes(const core::RunResult& run) {
  obs::RunManifest manifest;
  manifest.name = "scale_equivalence";
  manifest.replications = 1;
  manifest.trace_digests.push_back(run.trace_digest);
  manifest.metrics = run.metrics;
  util::Series latency;
  latency.name = "ALERT";
  latency.points.push_back({0.0, run.mean_latency_s, 0.0});
  manifest.series.push_back(latency);
  std::ostringstream out;
  manifest.write_json(out);
  std::string bytes = out.str();
  const std::size_t key = bytes.find("\"version\":");
  bytes.erase(key, bytes.find(',', key) + 1 - key);
  return bytes;
}

/// What the replaced implementation's run of a scenario produced.
struct ScanOutcome {
  std::uint64_t trace_digest;
  std::uint64_t events_executed;
  const char* manifest_sha1;
};

void expect_outcome(const core::ScenarioConfig& config,
                    const ScanOutcome& pinned) {
  const core::RunResult run = core::run_once(config, 0);
  ASSERT_GT(run.sent, 0u);
  EXPECT_EQ(run.trace_digest, pinned.trace_digest);
  EXPECT_EQ(run.events_executed, pinned.events_executed);
  EXPECT_EQ(crypto::to_hex(crypto::Sha1::hash(manifest_bytes(run))),
            pinned.manifest_sha1);
}

void expect_matches_scan(const core::ScenarioConfig& config,
                         const ScanOutcome& scan) {
  ASSERT_EQ(scale::SpatialGrid::cell_size_for(config.field,
                                              config.radio_range_m),
            config.radio_range_m)
      << "the field must be wide enough for range-sized cells";
  expect_outcome(config, scan);
}

// The pinned outcomes were read from the linear scan's runs of these exact
// scenarios, before the scan was deleted.

TEST(ScaleEquivalence, Fig14aStyleRandomWaypoint) {
  core::ScenarioConfig config;
  config.field = kWideField;
  config.node_count = 600;
  config.duration_s = 30.0;
  config.flow_count = 5;
  config.seed = 4242;
  expect_matches_scan(config, {0xad27ad461cb95d39ULL, 44078,
                               "01eb8415d9375316e8c627432db763f1948e4373"});
}

TEST(ScaleEquivalence, Fig17StyleGroupMobility) {
  core::ScenarioConfig config;
  config.field = kWideField;
  config.node_count = 600;
  config.duration_s = 30.0;
  config.flow_count = 5;
  config.mobility = core::MobilityKind::Group;
  config.speed_mps = 8.0;
  config.seed = 1717;
  expect_matches_scan(config, {0x2a26d5a9b55074d4ULL, 59011,
                               "9d1247438722b99af58f2f0cf1b59b17cb3e7829"});
}

TEST(ScaleEquivalence, AblationStyleFaultsAndArq) {
  core::ScenarioConfig config;
  config.field = kWideField;
  config.node_count = 480;
  config.duration_s = 30.0;
  config.flow_count = 5;
  config.faults.loss.iid = 0.15;
  config.faults.churn.mttf_s = 40.0;
  config.mac.arq.enabled = true;
  config.seed = 99;
  expect_matches_scan(config, {0x01e79d3a801f4ba6ULL, 35976,
                               "0ed24cb977993a8fb85bc19fd6a6db04a328c790"});
}

TEST(ScaleEquivalence, TenThousandNodesLeakFree) {
  // Arena scale: 10k nodes at paper density. The run must open real
  // traffic and leave the packet ledger clean (run_once audits every uid's
  // terminal fate at teardown; a leak fails the run itself), and replay
  // the digest the grid produced when it was still optional.
  core::ScenarioConfig config;
  config.node_count = 10'000;
  const double side = 7071.0;  // sqrt(10000 / 200) km: paper density
  config.field = util::Rect{0.0, 0.0, side, side};
  config.duration_s = 5.0;
  config.flow_count = 10;
  config.seed = 10'000;
  const core::RunResult run = core::run_once(config, 0);
  EXPECT_GT(run.packets_opened, 0u);
  EXPECT_EQ(run.trace_digest, 0x7600795a688c97ffULL);
  EXPECT_EQ(run.events_executed, 104274u);
}

TEST(ScaleEquivalence, DensePaperFieldGpsr) {
  // The paper's 1000 m field at 800 nodes, about 150 neighbours per table:
  // the density of paperbench's dense-gpsr workload, where hello upkeep is
  // nearly all the work. The outcome was read from the eager neighbour
  // table (linear search per hello, full sweep per expiry call) that the
  // pseudonym index and expiry bound replaced.
  core::ScenarioConfig config;
  config.node_count = 800;
  config.duration_s = 6.0;
  config.flow_count = 5;
  config.protocol = core::ProtocolKind::Gpsr;
  config.seed = 800;
  expect_outcome(config, {0x50f0885b0cd9d3ffULL, 9899,
                          "9b86558e51a682d936374604fda0c5c87d0a4b42"});
}

/// The `key=value` lines of `text` whose key starts with `prefix`.
std::vector<std::string> lines_with_prefix(const std::string& text,
                                           std::string_view prefix) {
  std::istringstream in(text);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with(prefix)) out.push_back(line);
  }
  return out;
}

TEST(ScaleEquivalence, DefaultsEmitNoScaleKeys) {
  // The canonical form (and so every campaign cache key) carries no
  // `scale.` key at all.
  const std::string canonical =
      core::canonical_scenario(core::ScenarioConfig{});
  EXPECT_TRUE(lines_with_prefix(canonical, "scale.").empty());
  // The retired grid and calendar-queue keys are unknown parameters: a
  // param text that still carries them is rejected on those lines alone.
  const std::string retired_calendar = std::string("scale.") + "calendar=true";
  const std::string retired_grid = "scale.grid=true";
  std::istringstream text("node_count=50\n" + retired_grid + "\n" +
                          retired_calendar + "\n");
  core::ScenarioConfig rebuilt;
  std::vector<std::string> rejected;
  for (std::string line; std::getline(text, line);) {
    const std::size_t eq = line.find('=');
    std::string error;
    if (!core::apply_scenario_param(rebuilt, line.substr(0, eq),
                                    line.substr(eq + 1), &error)) {
      rejected.push_back(line);
      EXPECT_NE(error.find("unknown scenario parameter"), std::string::npos)
          << error;
    }
  }
  EXPECT_EQ(rejected,
            (std::vector<std::string>{retired_grid, retired_calendar}));
  EXPECT_EQ(rebuilt.node_count, 50u);
}

}  // namespace
}  // namespace alert

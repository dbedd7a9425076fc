/// Grid-equivalence suite for alert::scale (docs/SCALE.md): the spatial
/// grid is a pure complexity swap, so the linear-scan and grid runs of a
/// scenario must produce bit-identical determinism digests and
/// byte-identical run-manifest serializations — across mobility models,
/// fault injection and ARQ. A 10k-node run additionally proves the grid
/// holds up at arena scale with a clean packet ledger.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario_codec.hpp"
#include "obs/manifest.hpp"

namespace alert {
namespace {

core::RunResult run_with_grid(core::ScenarioConfig config, bool grid) {
  config.scale_grid = grid;
  return core::run_once(config, 0);
}

/// Serialize the run's observable outcome the way the figure campaigns do:
/// digest + metrics + a result series in one RunManifest JSON document.
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
  return out.str();
}

void expect_grid_identical(const core::ScenarioConfig& config,
                           const char* label) {
  const core::RunResult linear = run_with_grid(config, false);
  ASSERT_GT(linear.events_executed, 0u) << label;
  ASSERT_GT(linear.sent, 0u) << label;
  const core::RunResult grid = run_with_grid(config, true);
  EXPECT_EQ(grid.trace_digest, linear.trace_digest) << label;
  EXPECT_EQ(grid.events_executed, linear.events_executed) << label;
  EXPECT_EQ(manifest_bytes(grid), manifest_bytes(linear)) << label;
}

TEST(ScaleEquivalence, Fig14aStyleRandomWaypoint) {
  core::ScenarioConfig config;
  config.node_count = 150;
  config.duration_s = 30.0;
  config.flow_count = 5;
  config.seed = 4242;
  expect_grid_identical(config, "fig14a-style");
}

TEST(ScaleEquivalence, Fig17StyleGroupMobility) {
  core::ScenarioConfig config;
  config.node_count = 150;
  config.duration_s = 30.0;
  config.flow_count = 5;
  config.mobility = core::MobilityKind::Group;
  config.speed_mps = 8.0;
  config.seed = 1717;
  expect_grid_identical(config, "fig17-style");
}

TEST(ScaleEquivalence, AblationStyleFaultsAndArq) {
  core::ScenarioConfig config;
  config.node_count = 120;
  config.duration_s = 30.0;
  config.flow_count = 5;
  config.faults.loss.iid = 0.15;
  config.faults.churn.mttf_s = 40.0;
  config.mac.arq.enabled = true;
  config.seed = 99;
  expect_grid_identical(config, "ablation-style");
}

TEST(ScaleEquivalence, TenThousandNodesLeakFree) {
  // Arena scale: 10k nodes at paper density. The grid run must open real
  // traffic and leave the packet ledger clean (run_once audits every uid's
  // terminal fate at teardown; a leak fails the run itself). The linear
  // configuration is omitted on purpose — its O(n) scans would dominate
  // tier-1 wall time without adding coverage beyond the 150-node pairs
  // above.
  core::ScenarioConfig config;
  config.node_count = 10'000;
  const double side = 7071.0;  // sqrt(10000 / 200) km: paper density
  config.field = util::Rect{0.0, 0.0, side, side};
  config.duration_s = 5.0;
  config.flow_count = 10;
  config.seed = 10'000;
  const core::RunResult run = run_with_grid(config, true);
  EXPECT_GT(run.events_executed, 0u);
  EXPECT_GT(run.packets_opened, 0u);
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
  // Off is inert: the canonical form (and so every campaign cache key)
  // carries no `scale.` key at all.
  core::ScenarioConfig config;
  EXPECT_TRUE(lines_with_prefix(core::canonical_scenario(config), "scale.")
                  .empty());
  // On emits exactly one line.
  config.scale_grid = true;
  EXPECT_EQ(lines_with_prefix(core::canonical_scenario(config), "scale."),
            std::vector<std::string>{"scale.grid=true"});
  // The retired calendar-queue key is an unknown parameter: a param text
  // that still carries it is rejected on that line alone.
  const std::string retired = std::string("scale.") + "calendar=true";
  std::istringstream text("node_count=50\nscale.grid=true\n" + retired +
                          "\n");
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
  EXPECT_EQ(rejected, std::vector<std::string>{retired});
  EXPECT_TRUE(rebuilt.scale_grid);
  EXPECT_EQ(rebuilt.node_count, 50u);
}

}  // namespace
}  // namespace alert

#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "campaign/figures.hpp"
#include "core/scenario.hpp"

namespace paperbench {

namespace {

using alert::campaign::CampaignSpec;
using alert::campaign::PointSpec;

/// Horizon of every point at smoke size: long enough for the 3 s hello
/// warm-up and a few CBR packets per flow.
constexpr double kSmokeHorizonS = 6.0;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a: a stable per-workload salt, so two workloads given the same seed
/// still draw different scenarios.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// A scenario seed of its own for every point. The registry's figures run
/// all points on one seed (common random numbers make smoother curves), but
/// then one unlucky draw moves every unit of a campaign together; drawn
/// independently, the cost of a campaign averages over its units and
/// varies far less from seed to seed.
void reseed(CampaignSpec& spec, std::uint64_t& stream) {
  for (PointSpec& point : spec.points) {
    stream = splitmix64(stream);
    point.config.seed = stream;
  }
}

void cap_horizon(CampaignSpec& spec, double horizon_s) {
  for (PointSpec& point : spec.points) {
    point.config.duration_s = std::min(point.config.duration_s, horizon_s);
  }
}

CampaignSpec registry_figure(std::string_view name) {
  const alert::campaign::FigureDef* def = alert::campaign::find_figure(name);
  return def != nullptr ? def->build() : CampaignSpec{};
}

/// GPSR at the paper's field size and 800-1200 nodes, largest first so the
/// four units pack onto the pool longest-first.
CampaignSpec dense_gpsr() {
  CampaignSpec s;
  s.name = "paperbench_dense_gpsr";
  s.banner = "# paperbench — GPSR at 800-1200 nodes";
  s.title = "GPSR delivery rate vs node count";
  s.x_label = "nodes";
  s.y_label = "delivery rate";
  s.y_metric = "delivery_rate";
  for (const std::size_t nodes : {1200UL, 1067UL, 933UL, 800UL}) {
    PointSpec p;
    p.curve = "GPSR";
    p.x = static_cast<double>(nodes);
    p.config = alert::campaign::paper_default_scenario();
    p.config.protocol = alert::core::ProtocolKind::Gpsr;
    p.config.node_count = nodes;
    s.points.push_back(std::move(p));
  }
  return s;
}

}  // namespace

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = std::string(name);
  // Full size: the fig17 grid is cut to a 12 s horizon and the dense GPSR
  // sweep to 20 s so one cold campaign takes a few seconds of wall time; the
  // attack grids keep their own session lengths. Unit cost and memory are
  // heavy-tailed (fig17 flows that fail retransmit, with covers; the attack
  // grids' few long ALERT units), so a campaign is kept small and run.py
  // averages over several seeds per run instead: a longer horizon or more
  // replications only makes the peak RSS hang on the heaviest unit.
  double horizon_s = 0.0;
  if (name == "alert-groups") {
    w.specs.push_back(registry_figure("fig17_movement_models"));
    horizon_s = 12.0;
    w.reps = 4;
  } else if (name == "dense-gpsr") {
    w.specs.push_back(dense_gpsr());
    horizon_s = 20.0;
  } else if (name == "attack-readback") {
    w.specs.push_back(registry_figure("table1_anonymity_matrix"));
    w.specs.push_back(registry_figure("ablation_intersection"));
    w.specs.push_back(registry_figure("sec31_interception"));
  } else {
    return std::nullopt;
  }
  if (smoke) {
    horizon_s = kSmokeHorizonS;
    w.reps = 1;
  }
  std::uint64_t stream = seed ^ fnv1a(name);
  for (CampaignSpec& spec : w.specs) {
    if (spec.points.empty()) return std::nullopt;  // registry name drifted
    reseed(spec, stream);
    if (horizon_s > 0.0) cap_horizon(spec, horizon_s);
  }
  return w;
}

}  // namespace paperbench

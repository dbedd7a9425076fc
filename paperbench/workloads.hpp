#pragma once

/// \file workloads.hpp
/// The benchmark's three campaign workloads, generated in-process from a
/// seed: every point's scenario seed is overridden, and the engine only ever
/// sees the resulting specs. Sizes are fixed here so both sides of a
/// comparison run identical work.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"

namespace paperbench {

struct Workload {
  std::string name;
  /// Run one after another, each through its own run_campaign call.
  std::vector<alert::campaign::CampaignSpec> specs;
  std::size_t reps = 1;  ///< explicit; ALERTSIM_REPS is never consulted
};

/// Build `name` for `seed`. `smoke` selects the smallest size (the self-test
/// size); nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name,
                                                    std::uint64_t seed,
                                                    bool smoke);

}  // namespace paperbench

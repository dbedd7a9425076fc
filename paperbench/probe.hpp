#pragma once

/// \file probe.hpp
/// The probe replication: one campaign unit re-run from the simulator's
/// public constructors, in the same order core::run_once builds it, with
/// timing decorators at every layer seam the program exposes:
///
///   * a PacketHandler decorator (Network::attach_handler) around the router;
///   * TraceListener decorators (Network::add_listener) around the passive
///     observer and around the metrics/delivery listeners;
///   * Protocol::send timed on the traffic events;
///   * the event loop as one timed Simulator::run_until(horizon) call;
///   * the post-horizon analyses timed one by one.
///
/// Spans nest (a listener fires inside a router's handle, which runs inside
/// the event loop), so each layer's self time is its span minus the spans
/// nested in it, and the self times partition the event-loop time.

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/scenario.hpp"
#include "obs/profile.hpp"

namespace paperbench {

/// The layers the probe's event loop is split into. `Net` is whatever it
/// spends outside the other four: event-queue pop, mobility, MAC/channel,
/// broadcast delivery, hello handling, neighbour tables, location service.
enum class Layer : std::uint8_t { Net, RoutingHandle, RoutingSend, Observe,
                                  Listeners };
inline constexpr std::size_t kLayerCount = 5;

struct ProbeResult {
  // Counts compared against execute_unit's result for the same unit.
  std::uint64_t events = 0;
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hello = 0;
  std::uint64_t trace_digest = 0;  ///< Simulator::trace_digest() at the horizon

  std::uint64_t loop_ns = 0;  ///< the whole timed event loop
  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};

  std::uint64_t log_events = 0;  ///< PassiveObserver::events().size()
  std::uint64_t log_bytes = 0;   ///< ... times the element size
  std::uint64_t trace_routes_ns = 0;
  std::uint64_t analysis_ns = 0;  ///< timing/intersection/compromise
  double nodes_within_ns = 0.0;   ///< per call, on the horizon topology

  std::uint64_t wall_ns = 0;  ///< build + loop + analyses, as execute_unit
  alert::obs::ProfileReport profile;  ///< the program's own inclusive scopes
};

/// Run replication `rep` of `config` with the probe's decorators attached.
[[nodiscard]] ProbeResult run_probe(const alert::core::ScenarioConfig& config,
                                    std::uint64_t rep);

}  // namespace paperbench

// Chaos test for the distributed campaign fan-out (ISSUE acceptance): a
// 1000-unit sweep over three forked worker processes, one of which is
// SIGKILLed mid-run; a fresh worker replaces it, the fleet self-heals by
// reclaiming the dangling lease, and the aggregated manifest is
// byte-identical to an uninterrupted single-worker run. Execution is a
// synthetic runner (pure function of the unit identity) so the thousand
// units exercise the queue, not the simulator.
//
// Fork-based by design — SIGKILL must take a whole process, not a thread —
// so the test is skipped under ThreadSanitizer, which does not support
// multi-threaded children after fork (run_worker starts a heartbeat
// thread). Children leave via _exit: no gtest teardown, no atexit, no
// sanitizer leak check in the child.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstddef>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/cache.hpp"
#include "campaign/engine.hpp"
#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "dist/aggregate.hpp"
#include "dist/progress.hpp"
#include "dist/queue.hpp"
#include "dist/worker.hpp"
#include "scratch_dir.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ALERTSIM_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define ALERTSIM_TSAN 1
#endif

namespace alert::dist {
namespace {

constexpr std::size_t kPoints = 10;
constexpr std::size_t kReps = 100;  // 10 x 100 = 1000 units

campaign::CampaignSpec chaos_spec() {
  campaign::CampaignSpec spec;
  spec.name = "chaos";
  spec.banner = "test — dist chaos";
  spec.title = "dist chaos";
  spec.x_label = "nodes";
  spec.y_label = "delivery rate";
  spec.y_metric = "delivery_rate";
  for (std::size_t p = 0; p < kPoints; ++p) {
    campaign::PointSpec point;
    point.curve = "grid";
    point.x = static_cast<double>(20 + p);
    point.config = campaign::paper_default_scenario();
    point.config.node_count = 20 + p;
    point.config.duration_s = 10.0;
    spec.points.push_back(std::move(point));
  }
  return spec;
}

core::RunResult synthetic_result(const campaign::WorkUnit& unit) {
  core::RunResult run;
  run.sent = 100;
  run.delivered = 90 - (unit.point % 7) - (unit.rep % 3);
  run.mean_latency_s = 0.125 * static_cast<double>(unit.point + 1);
  run.mean_hops = 2.0 + static_cast<double>(unit.rep % 5);
  run.trace_digest = 1000003ULL * (unit.point + 1) + unit.rep;
  run.events_executed = 10 + unit.rep;
  return run;
}

/// Synthetic execution with a per-unit delay, so a worker is reliably
/// mid-sweep when the parent delivers SIGKILL.
UnitRunner slow_runner(int delay_us) {
  return [delay_us](const campaign::CampaignSpec&,
                    const campaign::WorkUnit& unit) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    return std::optional<core::RunResult>(synthetic_result(unit));
  };
}

WorkerOptions chaos_options(const std::string& cache_dir,
                            const std::string& id) {
  WorkerOptions options;
  options.worker_id = id;
  options.reps = kReps;
  options.cache_dir = cache_dir;
  options.lease_ttl_s = 0.5;  // dangling leases reclaim fast
  options.poll_interval_s = 0.02;
  return options;
}

std::string manifest_bytes(const obs::RunManifest& manifest) {
  std::ostringstream out;
  manifest.write_json(out);
  return out.str();
}

AggregateOutcome aggregate_quiet(const campaign::CampaignSpec& spec,
                                 const std::string& cache_dir) {
  AggregateOptions options;
  options.reps = kReps;
  options.cache_dir = cache_dir;
  options.print = false;
  return aggregate_campaign(spec, options);
}

/// Fork one worker process; it never returns to gtest.
pid_t spawn_worker(const campaign::CampaignSpec& spec,
                   const std::string& cache_dir, const std::string& id,
                   int delay_us) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const WorkerOutcome outcome =
        run_worker(spec, chaos_options(cache_dir, id), slow_runner(delay_us));
    ::_exit(outcome.exit_code);
  }
  return pid;
}

TEST(DistChaos, KilledWorkerIsReplacedAndManifestMatchesSerial) {
#ifdef ALERTSIM_TSAN
  GTEST_SKIP() << "fork + threaded children is unsupported under TSan";
#endif
  const test_support::ScratchDir scratch("alertsim-dist-chaos-");
  const std::string& base = scratch.path();
  const campaign::CampaignSpec spec = chaos_spec();

  // Uninterrupted single-worker reference on its own cache.
  const std::string serial_cache = base + "/serial";
  const WorkerOutcome serial = run_worker(
      spec, chaos_options(serial_cache, "serial"), slow_runner(0));
  ASSERT_EQ(serial.exit_code, 0);
  ASSERT_EQ(serial.executed, kPoints * kReps);
  const AggregateOutcome serial_agg = aggregate_quiet(spec, serial_cache);
  ASSERT_EQ(serial_agg.exit_code, 0);

  // Fleet: three workers on a shared cache. The victim runs its units 4x
  // slower than its peers, so it is still mid-sweep when the kill lands.
  const std::string fleet_cache = base + "/fleet";
  campaign::ResultCache cache(fleet_cache);
  const WorkQueue queue(cache, spec.name);  // creates the progress dir

  const pid_t victim = spawn_worker(spec, fleet_cache, "chaos-w0", 2000);
  ASSERT_GT(victim, 0);
  std::vector<pid_t> healthy;
  healthy.push_back(spawn_worker(spec, fleet_cache, "chaos-w1", 500));
  healthy.push_back(spawn_worker(spec, fleet_cache, "chaos-w2", 500));
  for (const pid_t pid : healthy) ASSERT_GT(pid, 0);

  // SIGKILL the victim once its progress stream shows it mid-sweep (a few
  // claims in, certainly holding or about to hold a lease).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool victim_seen = false;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const WorkerProgress& p : read_progress(queue.progress_dir())) {
      if (p.worker == "chaos-w0" && p.claimed >= 5) victim_seen = true;
    }
    if (victim_seen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(victim_seen) << "victim never reported progress";
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // A fresh worker joins the fleet and helps finish the sweep.
  healthy.push_back(spawn_worker(spec, fleet_cache, "chaos-w3", 500));
  ASSERT_GT(healthy.back(), 0);

  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  for (const pid_t pid : healthy) {
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // The interrupted fleet's manifest is byte-identical to the serial run.
  const AggregateOutcome fleet_agg = aggregate_quiet(spec, fleet_cache);
  ASSERT_EQ(fleet_agg.exit_code, 0);
  EXPECT_EQ(fleet_agg.units_done, kPoints * kReps);
  EXPECT_EQ(fleet_agg.units_poisoned, 0u);
  EXPECT_EQ(manifest_bytes(fleet_agg.manifest),
            manifest_bytes(serial_agg.manifest));

  // Converged journal: the fleet participated (>= 3 claimers — the
  // replacement usually claims too, but the sweep may drain first on a
  // fast machine), no unit was claimed past the retry budget, and any
  // lease the victim left dangling was reclaimed.
  campaign::Journal journal(fleet_cache + "/journal", spec.name);
  EXPECT_GE(journal.workers().size(), 3u);
  // The replacement worker did start and stream progress.
  bool replacement_seen = false;
  for (const WorkerProgress& p : read_progress(queue.progress_dir())) {
    if (p.worker == "chaos-w3") replacement_seen = true;
  }
  EXPECT_TRUE(replacement_seen);
  EXPECT_LE(journal.max_claim_count(), 1u + RetryPolicy{}.max_retries);
  EXPECT_EQ(journal.done_count(), kPoints * kReps);
}

}  // namespace
}  // namespace alert::dist

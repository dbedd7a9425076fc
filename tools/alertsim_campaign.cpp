// alertsim-campaign: run scenario-sweep campaigns through the campaign
// engine — one spec (--spec FILE), a directory of specs (--spec DIR), one
// registry figure (--figure NAME) or the whole built-in registry of paper
// figures (--all) in a single process. Every campaign writes one
// "alertsim-run-manifest/1" document, <name>.json, into --out-dir (default
// campaign-out/). Completed (scenario, replication)
// units are served from the content-addressed result cache, so a second
// invocation — or a resume after a crash — skips every computed point and
// reproduces byte-identical manifests.
//
// Distributed fan-out (docs/DIST.md): any number of --worker processes
// sharing one --cache-dir claim units through crash-tolerant lease files
// and converge on the same cache a single process would produce;
// --aggregate then assembles the byte-identical manifest. --workers N is
// the local coordinator: fork N workers, respawn crashed ones (bounded),
// stream the fleet's progress, and aggregate at convergence.
//
// Usage:
//   alertsim-campaign --list
//   alertsim-campaign --all [--reps N] [--threads N]
//   alertsim-campaign --figure fig14a_latency_vs_nodes
//   alertsim-campaign --spec specs/my_sweep.json --out-dir results
//   Cache control: --cache-dir DIR | --no-cache | --force
//   Distributed:   --worker [--worker-id ID] | --workers N | --aggregate
//                  [--lease-ttl S] [--max-retries N] [--dist-summary]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/cache.hpp"
#include "campaign/engine.hpp"
#include "campaign/figures.hpp"
#include "campaign/spec.hpp"
#include "core/experiment.hpp"
#include "dist/aggregate.hpp"
#include "dist/progress.hpp"
#include "dist/worker.hpp"
#include "obs/series.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

namespace fs = std::filesystem;
using namespace alert;

int usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "alertsim-campaign: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: alertsim-campaign (--all | --figure NAME | --spec PATH | "
      "--list)\n"
      "       [--reps N] [--threads N] [--out-dir DIR] [--trace-out FILE]\n"
      "       [--cache-dir DIR] [--no-cache] [--force] [--peak-rss]\n"
      "       [--worker [--worker-id ID] | --workers N | --aggregate]\n"
      "       [--lease-ttl SECONDS] [--max-retries N] [--dist-summary]\n"
      "       [--log-level L]\n");
  return 2;
}

/// Shared dist knobs resolved from the command line.
struct DistConfig {
  std::string cache_dir;  ///< resolved root (never empty)
  std::size_t reps = 0;
  double lease_ttl_s = 30.0;
  dist::RetryPolicy retry;
};

int run_worker_mode(const std::vector<campaign::CampaignSpec>& specs,
                    const DistConfig& cfg, const std::string& worker_id) {
  int exit_code = 0;
  for (const campaign::CampaignSpec& spec : specs) {
    dist::WorkerOptions options;
    options.worker_id = worker_id;
    options.reps = cfg.reps;
    options.cache_dir = cfg.cache_dir;
    options.lease_ttl_s = cfg.lease_ttl_s;
    options.retry = cfg.retry;
    const dist::WorkerOutcome outcome =
        dist::run_worker(spec, options, /*runner=*/{});
    if (outcome.exit_code != 0) exit_code = outcome.exit_code;
  }
  return exit_code;
}

int run_aggregate_mode(const std::vector<campaign::CampaignSpec>& specs,
                       const DistConfig& cfg, const std::string& out_dir,
                       bool dist_summary, bool record_peak_rss) {
  int exit_code = 0;
  for (const campaign::CampaignSpec& spec : specs) {
    dist::AggregateOptions options;
    options.reps = cfg.reps;
    options.cache_dir = cfg.cache_dir;
    options.metrics_out = (fs::path(out_dir) / (spec.name + ".json")).string();
    options.dist_summary = dist_summary;
    options.record_peak_rss = record_peak_rss;
    const dist::AggregateOutcome outcome =
        dist::aggregate_campaign(spec, options);
    if (outcome.exit_code != 0) exit_code = outcome.exit_code;
    obs::print_text_line("");
  }
  return exit_code;
}

/// Local coordinator: fork `worker_count` workers over the shared cache,
/// respawn abnormal deaths (bounded), stream aggregate progress, then
/// assemble the manifests once the fleet drains.
int run_coordinator(const std::vector<campaign::CampaignSpec>& specs,
                    const DistConfig& cfg, const std::string& out_dir,
                    std::size_t worker_count, bool dist_summary,
                    bool record_peak_rss) {
  std::vector<pid_t> alive;
  std::size_t spawned = 0;
  const auto spawn = [&]() -> bool {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("alertsim-campaign: fork");
      return false;
    }
    if (pid == 0) {
      // Child: run the worker loop over every campaign, then hard-exit so
      // the coordinator's buffered state is never flushed twice.
      ::_exit(run_worker_mode(specs, cfg, dist::default_worker_id()));
    }
    alive.push_back(pid);
    ++spawned;
    return true;
  };

  for (std::size_t i = 0; i < worker_count; ++i) {
    if (!spawn()) break;
  }
  if (alive.empty()) return 1;

  // A worker exits 0 only at convergence, so respawning is pure resilience;
  // the bound keeps a deterministic crasher from forking forever.
  std::size_t respawn_budget = 2 * worker_count;
  dist::AggregateProgress last_view;
  bool printed_view = false;
  while (!alive.empty()) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      alive.erase(std::remove(alive.begin(), alive.end(), pid), alive.end());
      const bool crashed =
          WIFSIGNALED(status) || (WIFEXITED(status) && WEXITSTATUS(status) != 0);
      if (crashed) {
        ALERT_LOG_WARN("dist: worker pid %ld died (status %d)",
                       static_cast<long>(pid), status);
        if (respawn_budget > 0) {
          --respawn_budget;
          (void)spawn();
        }
      }
      continue;
    }

    // Live fleet view: per-worker progress files summed across campaigns.
    dist::AggregateProgress view;
    std::size_t workers_seen = 0;
    for (const campaign::CampaignSpec& spec : specs) {
      const std::string progress_dir =
          (fs::path(cfg.cache_dir) / "dist" / spec.name / "progress").string();
      const auto per_worker = dist::read_progress(progress_dir);
      const dist::AggregateProgress agg = dist::aggregate_progress(per_worker);
      workers_seen = std::max(workers_seen, per_worker.size());
      view.claimed += agg.claimed;
      view.executed += agg.executed;
      view.failed += agg.failed;
      view.reclaimed += agg.reclaimed;
    }
    view.workers = workers_seen;
    if (!printed_view || view.claimed != last_view.claimed ||
        view.executed != last_view.executed ||
        view.failed != last_view.failed ||
        view.reclaimed != last_view.reclaimed) {
      std::string line = "dist: " + std::to_string(view.workers) +
                         " workers, claimed " + std::to_string(view.claimed) +
                         ", executed " + std::to_string(view.executed);
      if (view.failed > 0) line += ", failed " + std::to_string(view.failed);
      if (view.reclaimed > 0) {
        line += ", reclaimed " + std::to_string(view.reclaimed);
      }
      obs::print_text_line(line);
      last_view = view;
      printed_view = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  ALERT_LOG_INFO("dist: fleet drained (%zu workers spawned)", spawned);

  return run_aggregate_mode(specs, cfg, out_dir, dist_summary,
                            record_peak_rss);
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = util::CliArgs::parse(argc, argv, &error);
  if (!args) return usage(error.c_str());
  const util::CommonFlags flags = util::CommonFlags::from(*args);

  const bool all = args->get("all", false);
  const bool list = args->get("list", false);
  const std::string figure = args->get("figure", std::string());
  const std::string spec_path = args->get("spec", std::string());
  const std::string out_dir = args->get("out-dir", std::string("campaign-out"));
  const bool reps_given = args->has("reps");
  const std::string reps_text = args->get("reps", std::string());

  campaign::CampaignOptions base_options;
  base_options.cache_dir = args->get("cache-dir", std::string());
  base_options.use_cache = !args->get("no-cache", false);
  base_options.force = args->get("force", false);
  base_options.record_peak_rss = args->get("peak-rss", false);

  const bool worker_mode = args->get("worker", false);
  const bool aggregate_mode = args->get("aggregate", false);
  const std::string worker_id = args->get("worker-id", std::string());
  const std::int64_t workers_flag = args->get("workers", std::int64_t{0});
  const bool dist_summary = args->get("dist-summary", false);
  DistConfig dist_cfg;
  dist_cfg.lease_ttl_s = args->get("lease-ttl", 30.0);
  const std::int64_t max_retries =
      args->get("max-retries", std::int64_t{2});

  for (const auto& key : args->unused()) {
    return usage(("unknown flag --" + key).c_str());
  }
  if (const auto level = util::parse_log_level(flags.log_level)) {
    util::set_log_level(*level);
  } else {
    return usage(("bad --log-level=" + flags.log_level).c_str());
  }
  if (reps_given) {
    const auto reps = core::parse_replications(reps_text);
    if (!reps) {
      const std::string msg = "bad --reps=" + reps_text +
                              " (expected an integer in [1, " +
                              std::to_string(core::kMaxReplications) + "])";
      return usage(msg.c_str());
    }
    base_options.reps = *reps;
  }
  if (flags.threads < 0) return usage("--threads must be >= 0");
  base_options.threads = static_cast<std::size_t>(flags.threads);

  const bool dist_mode = worker_mode || aggregate_mode || workers_flag != 0;
  if (worker_mode + aggregate_mode + (workers_flag != 0) > 1) {
    return usage("--worker, --workers and --aggregate are mutually exclusive");
  }
  if (dist_mode && !base_options.use_cache) {
    return usage("distributed modes need the cache (drop --no-cache)");
  }
  if (workers_flag < 0) return usage("--workers must be >= 1");
  if (max_retries < 0) return usage("--max-retries must be >= 0");
  if (dist_cfg.lease_ttl_s <= 0.0) return usage("--lease-ttl must be > 0");
  dist_cfg.cache_dir = base_options.cache_dir.empty()
                           ? campaign::default_cache_root()
                           : base_options.cache_dir;
  dist_cfg.reps = base_options.reps;
  dist_cfg.retry.max_retries = static_cast<std::size_t>(max_retries);

  if (list) {
    for (const campaign::FigureDef& def : campaign::figure_registry()) {
      const campaign::CampaignSpec spec = def.build();
      obs::print_text_line(std::string(def.name) + "  (" + spec.banner + ")");
    }
    return 0;
  }

  // --- collect the campaigns to run ---------------------------------------
  std::vector<campaign::CampaignSpec> specs;
  if (all) {
    for (const campaign::FigureDef& def : campaign::figure_registry()) {
      specs.push_back(def.build());
    }
  }
  if (!figure.empty()) {
    const campaign::FigureDef* def = campaign::find_figure(figure);
    if (def == nullptr) {
      return usage(("unknown figure '" + figure + "' (see --list)").c_str());
    }
    specs.push_back(def->build());
  }
  if (!spec_path.empty()) {
    std::vector<std::string> files;
    std::error_code ec;
    if (fs::is_directory(spec_path, ec)) {
      for (const auto& entry : fs::directory_iterator(spec_path, ec)) {
        if (entry.path().extension() == ".json") {
          files.push_back(entry.path().string());
        }
      }
      std::sort(files.begin(), files.end());
      if (files.empty()) {
        return usage(("no .json specs in '" + spec_path + "'").c_str());
      }
    } else {
      files.push_back(spec_path);
    }
    for (const std::string& file : files) {
      auto spec = campaign::load_spec_file(file, &error);
      if (!spec) {
        std::fprintf(stderr, "alertsim-campaign: %s: %s\n", file.c_str(),
                     error.c_str());
        return 2;
      }
      specs.push_back(std::move(*spec));
    }
  }
  if (specs.empty()) return usage("nothing to run");

  // --- distributed modes ----------------------------------------------------
  if (worker_mode) {
    // Workers write the shared cache only; the aggregator owns out-dir.
    return run_worker_mode(specs, dist_cfg, worker_id);
  }

  if (aggregate_mode || workers_flag != 0) {
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "alertsim-campaign: cannot create '%s': %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 1;
    }
    if (aggregate_mode) {
      return run_aggregate_mode(specs, dist_cfg, out_dir, dist_summary,
                                base_options.record_peak_rss);
    }
    return run_coordinator(specs, dist_cfg, out_dir,
                           static_cast<std::size_t>(workers_flag),
                           dist_summary, base_options.record_peak_rss);
  }

  {
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "alertsim-campaign: cannot create '%s': %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  // --- run ----------------------------------------------------------------
  int exit_code = 0;
  std::size_t total_units = 0;
  std::size_t total_cached = 0;
  std::size_t total_executed = 0;
  std::size_t total_store_errors = 0;
  std::size_t total_journal_errors = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    campaign::CampaignOptions options = base_options;
    options.metrics_out =
        (fs::path(out_dir) / (specs[i].name + ".json")).string();
    // One trace file holds one replication's events; attach the sink to the
    // first campaign only instead of overwriting it per figure.
    if (i == 0) options.trace_out = flags.trace_out;
    const campaign::CampaignOutcome outcome =
        campaign::run_campaign(specs[i], options);
    if (outcome.exit_code != 0) exit_code = outcome.exit_code;
    total_units += outcome.units_total;
    total_cached += outcome.cache_hits;
    total_executed += outcome.executed;
    total_store_errors += outcome.cache_store_errors;
    total_journal_errors += outcome.journal_write_errors;
    obs::print_text_line("");
  }
  std::string summary =
      "campaign summary: " + std::to_string(specs.size()) + " figures, " +
      std::to_string(total_units) + " units, " +
      std::to_string(total_cached) + " cached, " +
      std::to_string(total_executed) + " executed";
  // Degraded persistence is never silent: completed units whose results or
  // journal lines missed the disk will re-execute on the next resume.
  if (total_store_errors > 0 || total_journal_errors > 0) {
    summary += ", DEGRADED (" + std::to_string(total_store_errors) +
               " cache store errors, " + std::to_string(total_journal_errors) +
               " journal write errors)";
  }
  obs::print_text_line(summary);
  return exit_code;
}

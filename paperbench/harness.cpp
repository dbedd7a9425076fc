// paperbench-harness: runs one benchmark workload as a cold-cache campaign
// and prints one JSON line with what it measured. run.py launches it in a
// fresh process per campaign; see run.py for the metrics built from it.
//
//   paperbench-harness --mode campaign --workload alert-groups --seed 7
//       --cache-dir DIR --out-dir DIR [--smoke] [--setup-only]
//   paperbench-harness --mode traced --workload dense-gpsr --seed 7
//       --cache-dir DIR --out-dir DIR [--smoke]
//
// campaign: every spec of the workload goes through campaign::run_campaign,
// exactly as alertsim-campaign runs it. The JSON line carries the monotonic
// time at which set-up ended (spec built, units expanded, cache roots
// created) and the time the last campaign returned; the caller holds the
// launch time on the same clock. --setup-only stops before the first unit.
//
// traced: the campaign is composed from the engine's public pieces with one
// span per call (expand_units; per unit ResultCache::load, execute_unit,
// ResultCache::store; assemble_manifest and write_manifest_atomic), then a
// probe replication (probe.hpp) re-runs a fixed sample of units with timing
// decorators. Spans stay in memory and are written to OUT/spans.json at the
// end. Exit status 1 when a probe's counts or trace digest disagree with
// its unit's.
//
// The engine's pool always runs kThreads workers; every JSON line carries
// that count as "threads".

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/engine.hpp"
#include "crypto/pubkey.hpp"
#include "crypto/sha1.hpp"
#include "crypto/symmetric.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "probe.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
namespace campaign = alert::campaign;
using alert::obs::JsonWriter;
using alert::obs::monotonic_ns;
using paperbench::Layer;
using paperbench::ProbeResult;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  std::string cache_dir;
  std::string out_dir;
  bool smoke = false;
  bool setup_only = false;
};

/// The engine's pool size, fixed so every host runs the same closed loop.
constexpr std::size_t kThreads = 4;

/// Probe replications per traced run: one per pool thread.
constexpr std::size_t kProbes = kThreads;

int usage(const char* msg) {
  std::fprintf(stderr, "paperbench-harness: %s\n", msg);
  std::fprintf(stderr,
               "usage: paperbench-harness --mode campaign|traced --workload W"
               " --seed N --cache-dir DIR --out-dir DIR\n"
               "       [--smoke] [--setup-only]\n");
  return 2;
}

/// A cold run needs an empty cache root of its own: a warm entry would be
/// served instead of executed and read as a several-hundredfold speed-up.
bool prepare_cold_cache(const std::string& root) {
  std::error_code ec;
  if (fs::exists(root, ec) && !fs::is_empty(root, ec)) {
    std::fprintf(stderr, "paperbench-harness: cache %s is not empty\n",
                 root.c_str());
    return false;
  }
  fs::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "paperbench-harness: cannot create %s: %s\n",
                 root.c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

std::string cache_root(const Args& args, const campaign::CampaignSpec& spec) {
  return (fs::path(args.cache_dir) / spec.name).string();
}

std::string manifest_path(const Args& args,
                          const campaign::CampaignSpec& spec) {
  return (fs::path(args.out_dir) / (spec.name + ".json")).string();
}

// --- campaign mode ----------------------------------------------------------

int run_campaign_mode(const Args& args, const paperbench::Workload& w) {
  std::size_t units_total = 0;
  for (const campaign::CampaignSpec& spec : w.specs) {
    units_total += campaign::expand_units(spec, w.reps).units.size();
    if (!prepare_cold_cache(cache_root(args, spec))) return 3;
  }
  const std::uint64_t setup_end_ns = monotonic_ns();
  if (args.setup_only) {
    std::printf("{\"setup_end_ns\":%llu,\"units\":%zu,\"threads\":%zu}\n",
                static_cast<unsigned long long>(setup_end_ns), units_total,
                kThreads);
    return 0;
  }

  std::vector<campaign::CampaignOutcome> outcomes;
  for (const campaign::CampaignSpec& spec : w.specs) {
    campaign::CampaignOptions opt;
    opt.reps = w.reps;
    opt.threads = kThreads;
    opt.cache_dir = cache_root(args, spec);
    opt.metrics_out = manifest_path(args, spec);
    opt.print = false;
    outcomes.push_back(campaign::run_campaign(spec, opt));
  }
  const std::uint64_t run_end_ns = monotonic_ns();

  // After the clock stops: every unit must have executed live and stored a
  // readable entry; its events_executed comes back from that entry.
  std::ostringstream line;
  JsonWriter json(line);
  json.begin_object();
  json.field("setup_end_ns", setup_end_ns);
  json.field("run_end_ns", run_end_ns);
  json.field("units", static_cast<std::uint64_t>(units_total));
  json.field("threads", static_cast<std::uint64_t>(kThreads));
  std::size_t failed = 0;
  json.key("campaigns");
  json.begin_array();
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const campaign::CampaignSpec& spec = w.specs[i];
    const campaign::CampaignOutcome& o = outcomes[i];
    const campaign::ResultCache cache(cache_root(args, spec));
    std::uint64_t events = 0;
    std::size_t unreadable = 0;
    for (const campaign::WorkUnit& unit :
         campaign::expand_units(spec, w.reps).units) {
      if (auto run = cache.load(unit.key)) {
        events += run->events_executed;
      } else {
        ++unreadable;
      }
    }
    const bool ok = o.exit_code == 0 && o.executed == o.units_total &&
                    o.cache_hits == 0 && o.cache_store_errors == 0 &&
                    unreadable == 0;
    if (!ok) failed += o.units_total;
    json.begin_object();
    json.field("name", std::string_view(spec.name));
    json.field("manifest", std::string_view(manifest_path(args, spec)));
    json.field("units", static_cast<std::uint64_t>(o.units_total));
    json.field("events_executed", events);
    json.field("ok", ok);
    json.end_object();
  }
  json.end_array();
  json.field("failed_units", static_cast<std::uint64_t>(failed));
  json.end_object();
  std::printf("%s\n", line.str().c_str());
  return 0;
}

// --- traced mode ------------------------------------------------------------

struct Span {
  const char* name;
  std::size_t unit;  ///< global unit index; SIZE_MAX for campaign-level spans
  std::size_t thread;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1);
  return index;
}

/// What the traced run keeps of each executed unit (the RunResult itself is
/// consumed by assemble_manifest).
struct UnitStats {
  std::size_t spec = 0;
  campaign::WorkUnit unit;
  std::uint64_t events = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  std::uint64_t hello = 0;
  std::uint64_t delivered = 0;
  std::uint64_t crypto_ops = 0;
  std::uint64_t loc_updates = 0;
  std::uint64_t scope_records = 0;
  std::uint64_t entry_bytes = 0;
  bool stored = false;
  Span load{}, execute{}, store{};
};

std::uint64_t counter(const alert::core::RunResult& run, const char* name) {
  const alert::obs::MetricValue* v = run.metrics.find(name);
  return v != nullptr ? v->total : 0;
}

double mean_of(const std::vector<UnitStats>& units,
               std::uint64_t UnitStats::*field) {
  if (units.empty()) return 0.0;
  double sum = 0.0;
  for (const UnitStats& u : units) sum += static_cast<double>(u.*field);
  return sum / static_cast<double>(units.size());
}

/// Crypto primitives at the scenario's modulus size and payload length.
struct CryptoCosts {
  double rsa_encrypt_ns = 0.0;
  double rsa_decrypt_ns = 0.0;
  double xtea_ctr_ns_per_kb = 0.0;
  double sha1_ns_per_kb = 0.0;
};

CryptoCosts time_crypto(int modulus_bits, std::size_t payload_bytes,
                        std::uint64_t seed) {
  namespace crypto = alert::crypto;
  alert::util::Rng rng(seed);
  const crypto::KeyPair kp = crypto::generate_keypair(rng, modulus_bits);
  constexpr std::size_t kRsaOps = 20000;
  constexpr std::size_t kStreamOps = 4000;
  std::uint64_t sink = 0;
  CryptoCosts c;

  std::vector<std::uint64_t> values(kRsaOps);
  for (std::uint64_t& v : values) v = rng.next() % kp.pub.n;
  std::uint64_t t0 = monotonic_ns();
  for (std::uint64_t& v : values) v = crypto::rsa_encrypt_value(kp.pub, v);
  c.rsa_encrypt_ns =
      static_cast<double>(monotonic_ns() - t0) / static_cast<double>(kRsaOps);
  t0 = monotonic_ns();
  for (const std::uint64_t v : values) {
    sink ^= crypto::rsa_decrypt_value(kp.priv, v);
  }
  c.rsa_decrypt_ns =
      static_cast<double>(monotonic_ns() - t0) / static_cast<double>(kRsaOps);

  std::vector<std::uint8_t> payload(std::max<std::size_t>(payload_bytes, 1));
  for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng.next());
  const double kb_total = static_cast<double>(payload.size()) / 1024.0 *
                          static_cast<double>(kStreamOps);
  const auto key = crypto::SymmetricKey::from_seed(rng.next());
  t0 = monotonic_ns();
  for (std::size_t i = 0; i < kStreamOps; ++i) {
    crypto::xtea_ctr_apply(key, i, payload);
  }
  c.xtea_ctr_ns_per_kb = static_cast<double>(monotonic_ns() - t0) / kb_total;
  t0 = monotonic_ns();
  for (std::size_t i = 0; i < kStreamOps; ++i) {
    payload[i % payload.size()] ^= static_cast<std::uint8_t>(i);
    sink ^= crypto::digest_prefix64(crypto::Sha1::hash(payload));
  }
  c.sha1_ns_per_kb = static_cast<double>(monotonic_ns() - t0) / kb_total;
  static_cast<void>(sink);  // the calls live in alert_crypto: never elided
  return c;
}

/// Highest percentile with at least ten units beyond it. Below 21 units that
/// percentile would sit under the median, so the maximum is reported.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

Tail tail_of(std::vector<double> sorted) {
  std::sort(sorted.begin(), sorted.end());
  Tail t;
  if (sorted.empty()) return t;
  const std::size_t n = sorted.size();
  if (n <= 20) {
    t.value = sorted.back();
    return t;
  }
  t.value = sorted[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void write_span(JsonWriter& json, const Span& s) {
  json.begin_object();
  json.field("name", std::string_view(s.name));
  if (s.unit != SIZE_MAX) {
    json.field("unit", static_cast<std::uint64_t>(s.unit));
  }
  json.field("thread", static_cast<std::uint64_t>(s.thread));
  json.field("start_ns", s.start_ns);
  json.field("end_ns", s.end_ns);
  json.end_object();
}

constexpr const char* kLayerNames[paperbench::kLayerCount] = {
    "net.self", "routing.handle", "routing.send", "attack.observe",
    "listeners"};

int run_traced_mode(const Args& args, const paperbench::Workload& w) {
  std::vector<Span> spans;  // campaign-level spans
  std::vector<UnitStats> units;
  double pool_busy_ns = 0.0;
  double pool_capacity_ns = 0.0;
  int exit_code = 0;
  alert::util::ThreadPool pool(kThreads);

  for (std::size_t si = 0; si < w.specs.size(); ++si) {
    const campaign::CampaignSpec& spec = w.specs[si];
    if (!prepare_cold_cache(cache_root(args, spec))) return 3;
    Span expand{"campaign.expand_units", SIZE_MAX, thread_index(),
                monotonic_ns(), 0};
    campaign::UnitGrid grid = campaign::expand_units(spec, w.reps);
    expand.end_ns = monotonic_ns();
    spans.push_back(expand);

    const campaign::ResultCache cache(cache_root(args, spec));
    const std::size_t first = units.size();
    units.resize(first + grid.units.size());
    std::vector<alert::core::RunResult> results(grid.units.size());
    const std::uint64_t pool_start = monotonic_ns();
    for (std::size_t i = 0; i < grid.units.size(); ++i) {
      UnitStats& stats = units[first + i];
      stats.spec = si;
      stats.unit = grid.units[i];
      pool.submit([&spec, &cache, &stats, &results, i, global = first + i] {
        const std::size_t thread = thread_index();
        const campaign::WorkUnit& unit = stats.unit;
        stats.load = {"campaign.cache_load", global, thread, monotonic_ns(),
                      0};
        const bool warm = cache.load(unit.key).has_value();
        stats.load.end_ns = monotonic_ns();
        stats.execute = {"core.execute_unit", global, thread, monotonic_ns(),
                         0};
        alert::core::RunResult run = campaign::execute_unit(spec, unit);
        stats.execute.end_ns = monotonic_ns();
        stats.store = {"campaign.cache_store", global, thread, monotonic_ns(),
                       0};
        stats.stored = !warm && cache.store(unit.key, run);
        stats.store.end_ns = monotonic_ns();
        std::error_code ec;
        stats.entry_bytes = fs::file_size(cache.object_path(unit.key), ec);
        stats.events = run.events_executed;
        stats.trace_digest = run.trace_digest;
        stats.tx = counter(run, "net.tx");
        stats.rx = counter(run, "net.rx");
        stats.hello = run.hello_messages;
        stats.delivered = run.delivered;
        stats.crypto_ops = counter(run, "crypto.ops");
        stats.loc_updates = run.location_update_messages;
        for (const auto& scope : run.profile.scopes) {
          stats.scope_records += scope.count;
        }
        // Disjoint slots: each task owns results[i].
        results[i] = std::move(run);
      });
    }
    pool.wait_idle();
    const std::uint64_t pool_end = monotonic_ns();
    pool_capacity_ns += static_cast<double>(kThreads) *
                        static_cast<double>(pool_end - pool_start);
    for (std::size_t i = first; i < units.size(); ++i) {
      pool_busy_ns +=
          static_cast<double>(units[i].store.end_ns - units[i].load.start_ns);
      if (!units[i].stored) {
        std::fprintf(stderr, "paperbench: unit %zu of %s was not stored\n",
                     i - first, spec.name.c_str());
        exit_code = 1;
      }
    }

    Span assemble{"campaign.assemble_manifest", SIZE_MAX, thread_index(),
                  monotonic_ns(), 0};
    const alert::obs::RunManifest manifest =
        campaign::assemble_manifest(spec, grid, std::move(results));
    assemble.end_ns = monotonic_ns();
    spans.push_back(assemble);
    Span write{"campaign.write_manifest_atomic", SIZE_MAX, thread_index(),
               monotonic_ns(), 0};
    if (!campaign::write_manifest_atomic(manifest, manifest_path(args, spec))) {
      exit_code = 1;
    }
    write.end_ns = monotonic_ns();
    spans.push_back(write);
  }

  // --- probes: a fixed sample of the workload's units ----------------------
  // The first unit of every campaign (so each grid's analyses are timed),
  // then evenly spaced units up to kProbes.
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (i == 0 || units[i].spec != units[i - 1].spec) sample.push_back(i);
  }
  for (std::size_t k = 0; k < kProbes && sample.size() < kProbes; ++k) {
    const std::size_t i = k * units.size() / kProbes;
    if (std::find(sample.begin(), sample.end(), i) == sample.end()) {
      sample.push_back(i);
    }
  }
  std::sort(sample.begin(), sample.end());
  const std::size_t n_probes = sample.size();
  // The same units once more without decorators, under the same pool load,
  // as the untraced side of obs.trace_overhead_pct (the campaign's own
  // execute_unit spans ran in a colder process).
  std::vector<double> untraced_ns(n_probes);
  for (std::size_t k = 0; k < n_probes; ++k) {
    pool.submit([&w, &units, &untraced_ns, &sample, k] {
      const UnitStats& u = units[sample[k]];
      const std::uint64_t t0 = monotonic_ns();
      (void)campaign::execute_unit(w.specs[u.spec], u.unit);
      untraced_ns[k] = static_cast<double>(monotonic_ns() - t0);
    });
  }
  pool.wait_idle();
  std::vector<ProbeResult> probes(n_probes);
  for (std::size_t k = 0; k < n_probes; ++k) {
    pool.submit([&w, &units, &probes, &sample, k] {
      const UnitStats& u = units[sample[k]];
      probes[k] = paperbench::run_probe(
          w.specs[u.spec].points[u.unit.point].config, u.unit.rep);
    });
  }
  pool.wait_idle();

  // --- fidelity: the probe must have run the very same simulation ---------
  double step_total_ns = 0.0;
  double self_sum_ns = 0.0;
  double probe_wall_ns = 0.0;
  double untraced_wall_ns = 0.0;
  for (std::size_t k = 0; k < n_probes; ++k) {
    const ProbeResult& p = probes[k];
    const UnitStats& u = units[sample[k]];
    const struct {
      const char* name;
      std::uint64_t probe, unit;
    } checks[] = {{"events", p.events, u.events},
                  {"net.tx", p.tx, u.tx},
                  {"net.rx", p.rx, u.rx},
                  {"delivered", p.delivered, u.delivered},
                  {"trace_digest", p.trace_digest, u.trace_digest}};
    for (const auto& c : checks) {
      if (c.probe != c.unit) {
        std::fprintf(stderr,
                     "paperbench: FIDELITY unit %zu %s: probe %llu, "
                     "execute_unit %llu\n",
                     sample[k], c.name,
                     static_cast<unsigned long long>(c.probe),
                     static_cast<unsigned long long>(c.unit));
        exit_code = 1;
      }
    }
    step_total_ns += static_cast<double>(p.loop_ns);
    for (const std::uint64_t s : p.self_ns) {
      self_sum_ns += static_cast<double>(s);
    }
    probe_wall_ns += static_cast<double>(p.wall_ns);
    untraced_wall_ns += untraced_ns[k];
  }
  // Every other layer's span nests inside the Net span around the event
  // loop, so the self times sum to the loop time by construction: this only
  // bounds the clock reads around that span, it cannot catch time charged to
  // the wrong layer.
  const double unaccounted =
      step_total_ns > 0.0 ? (step_total_ns - self_sum_ns) / step_total_ns : 0;
  if (n_probes > 0 && std::fabs(unaccounted) > 0.05) {
    std::fprintf(stderr,
                 "paperbench: FIDELITY layer self times cover %.1f%% of the "
                 "event loop\n",
                 100.0 * (1.0 - unaccounted));
    exit_code = 1;
  }

  // --- per-layer metrics ----------------------------------------------------
  const auto np = static_cast<double>(std::max<std::size_t>(n_probes, 1));
  auto probe_sum = [&](auto get) {
    double s = 0.0;
    for (const ProbeResult& p : probes) s += static_cast<double>(get(p));
    return s;
  };
  auto layer_self = [&](Layer l) {
    return probe_sum([l](const ProbeResult& p) {
      return p.self_ns[static_cast<std::size_t>(l)];
    });
  };
  auto layer_calls = [&](Layer l) {
    return probe_sum([l](const ProbeResult& p) {
      return p.calls[static_cast<std::size_t>(l)];
    });
  };
  auto per_call = [](double ns, double calls) {
    return calls > 0.0 ? ns / calls : 0.0;
  };

  std::vector<double> unit_s;
  double store_ns = 0.0;
  for (const UnitStats& u : units) {
    unit_s.push_back(
        static_cast<double>(u.execute.end_ns - u.execute.start_ns) * 1e-9);
    store_ns += static_cast<double>(u.store.end_ns - u.store.start_ns);
  }
  const Tail tail = tail_of(unit_s);
  double expand_ns = 0.0, assemble_ns = 0.0;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (std::string_view(s.name) == "campaign.expand_units") {
      expand_ns += d;
    } else {
      assemble_ns += d;
    }
  }
  const alert::core::ScenarioConfig& cfg0 =
      w.specs.front().points.front().config;
  const CryptoCosts crypto = time_crypto(
      cfg0.network_config().rsa_modulus_bits, cfg0.payload_bytes, args.seed);
  const double n_units =
      static_cast<double>(std::max<std::size_t>(units.size(), 1));

  const std::vector<std::pair<const char*, double>> metrics = {
      {"campaign.expand_ms", expand_ns * 1e-6},
      {"campaign.cache_store_ms_per_unit", store_ns * 1e-6 / n_units},
      {"campaign.cache_entry_kb",
       mean_of(units, &UnitStats::entry_bytes) / 1024.0},
      {"campaign.assemble_ms", assemble_ns * 1e-6},
      {"campaign.pool_idle_pct",
       pool_capacity_ns > 0.0 ? 100.0 * (1.0 - pool_busy_ns / pool_capacity_ns)
                              : 0.0},
      {"core.unit_s_p50", median_of(unit_s)},
      {"core.unit_s_tail", tail.value},
      {"sim.events_per_unit", mean_of(units, &UnitStats::events)},
      {"sim.step_ns_per_event",
       per_call(step_total_ns,
                probe_sum([](const ProbeResult& p) { return p.events; }))},
      {"net.self_ms_per_unit", layer_self(Layer::Net) * 1e-6 / np},
      {"net.tx_per_unit", mean_of(units, &UnitStats::tx)},
      {"net.rx_per_unit", mean_of(units, &UnitStats::rx)},
      {"net.hello_per_unit", mean_of(units, &UnitStats::hello)},
      {"net.nodes_within_ns",
       probe_sum([](const ProbeResult& p) { return p.nodes_within_ns; }) / np},
      {"routing.handle_calls_per_unit", layer_calls(Layer::RoutingHandle) / np},
      {"routing.handle_ns_per_call",
       per_call(layer_self(Layer::RoutingHandle),
                layer_calls(Layer::RoutingHandle))},
      {"routing.handle_ms_per_unit",
       layer_self(Layer::RoutingHandle) * 1e-6 / np},
      {"routing.send_ns_per_call",
       per_call(layer_self(Layer::RoutingSend),
                layer_calls(Layer::RoutingSend))},
      {"crypto.rsa_decrypt_ns", crypto.rsa_decrypt_ns},
      {"crypto.rsa_encrypt_ns", crypto.rsa_encrypt_ns},
      {"crypto.xtea_ctr_ns_per_kb", crypto.xtea_ctr_ns_per_kb},
      {"crypto.sha1_ns_per_kb", crypto.sha1_ns_per_kb},
      {"crypto.modelled_ops_per_unit", mean_of(units, &UnitStats::crypto_ops)},
      {"attack.observe_calls_per_unit", layer_calls(Layer::Observe) / np},
      {"attack.observe_ns_per_call",
       per_call(layer_self(Layer::Observe), layer_calls(Layer::Observe))},
      {"attack.log_events_per_unit",
       probe_sum([](const ProbeResult& p) { return p.log_events; }) / np},
      {"attack.log_mb_per_unit",
       probe_sum([](const ProbeResult& p) { return p.log_bytes; }) / np /
           (1024.0 * 1024.0)},
      {"attack.trace_routes_ms_per_unit",
       probe_sum([](const ProbeResult& p) { return p.trace_routes_ns; }) *
           1e-6 / np},
      {"attack.analysis_ms_per_unit",
       probe_sum([](const ProbeResult& p) { return p.analysis_ns; }) * 1e-6 /
           np},
      {"loc.update_messages_per_unit", mean_of(units, &UnitStats::loc_updates)},
      {"obs.scope_records_per_unit", mean_of(units, &UnitStats::scope_records)},
      {"obs.trace_overhead_pct",
       untraced_wall_ns > 0.0
           ? 100.0 * (probe_wall_ns - untraced_wall_ns) / untraced_wall_ns
           : 0.0},
  };

  // --- spans and probe detail, written once at the end ---------------------
  const std::string spans_path =
      (fs::path(args.out_dir) / "spans.json").string();
  {
    std::ofstream out(spans_path);
    JsonWriter json(out);
    json.begin_object();
    json.field("workload", std::string_view(w.name));
    json.field("threads", static_cast<std::uint64_t>(kThreads));
    json.key("spans");
    json.begin_array();
    for (const Span& s : spans) write_span(json, s);
    for (const UnitStats& u : units) {
      write_span(json, u.load);
      write_span(json, u.execute);
      write_span(json, u.store);
    }
    json.end_array();
    json.key("probes");
    json.begin_array();
    for (std::size_t k = 0; k < n_probes; ++k) {
      const ProbeResult& p = probes[k];
      json.begin_object();
      json.field("unit", static_cast<std::uint64_t>(sample[k]));
      json.field("events", p.events);
      json.field("step_loop_ns", p.loop_ns);
      json.key("layers");
      json.begin_object();
      for (std::size_t l = 0; l < paperbench::kLayerCount; ++l) {
        json.key(kLayerNames[l]);
        json.begin_object();
        json.field("self_ns", p.self_ns[l]);
        json.field("calls", p.calls[l]);
        json.end_object();
      }
      json.end_object();
      json.key("obs_scopes");  // the program's inclusive scopes, beside ours
      p.profile.write_json(json);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  std::ostringstream line;
  JsonWriter json(line);
  json.begin_object();
  json.field("units", static_cast<std::uint64_t>(units.size()));
  json.field("threads", static_cast<std::uint64_t>(kThreads));
  json.field("probes", static_cast<std::uint64_t>(n_probes));
  json.field("fidelity_ok", exit_code == 0);
  json.field("unit_tail_percentile", tail.percentile);
  json.field("step_loop_ms_per_unit", step_total_ns * 1e-6 / np);
  json.field("spans", std::string_view(spans_path));
  json.key("manifests");
  json.begin_array();
  for (const campaign::CampaignSpec& spec : w.specs) {
    json.value(std::string_view(manifest_path(args, spec)));
  }
  json.end_array();
  json.key("events_executed");  // per manifest, for the output fingerprint
  json.begin_array();
  for (std::size_t si = 0; si < w.specs.size(); ++si) {
    std::uint64_t events = 0;
    for (const UnitStats& u : units) events += u.spec == si ? u.events : 0;
    json.value(events);
  }
  json.end_array();
  json.key("layers_ms_per_unit");
  json.begin_object();
  for (std::size_t l = 0; l < paperbench::kLayerCount; ++l) {
    json.field(kLayerNames[l], layer_self(static_cast<Layer>(l)) * 1e-6 / np);
  }
  json.end_object();
  json.key("metrics");
  json.begin_object();
  for (const auto& [name, value] : metrics) json.field(name, value);
  json.end_object();
  json.end_object();
  std::printf("%s\n", line.str().c_str());
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // Replication count and cache root are passed explicitly; the engine's
  // environment fallbacks must not leak into a benchmark run.
  ::unsetenv("ALERTSIM_REPS");
  ::unsetenv("ALERTSIM_CACHE_DIR");

  std::string error;
  const auto cli = alert::util::CliArgs::parse(argc, argv, &error);
  if (!cli) return usage(error.c_str());
  Args args;
  args.mode = cli->get("mode", std::string());
  args.workload = cli->get("workload", std::string());
  args.seed = static_cast<std::uint64_t>(cli->get("seed", std::int64_t{0}));
  args.cache_dir = cli->get("cache-dir", std::string());
  args.out_dir = cli->get("out-dir", std::string());
  args.smoke = cli->get("smoke", false);
  args.setup_only = cli->get("setup-only", false);
  for (const std::string& key : cli->unused()) {
    return usage(("unknown flag --" + key).c_str());
  }
  if (args.cache_dir.empty() || args.out_dir.empty()) {
    return usage("--cache-dir and --out-dir are required");
  }
  const auto workload =
      paperbench::make_workload(args.workload, args.seed, args.smoke);
  if (!workload) return usage("unknown --workload");
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  if (args.mode == "campaign") return run_campaign_mode(args, *workload);
  if (args.mode == "traced") return run_traced_mode(args, *workload);
  return usage("--mode must be campaign or traced");
}

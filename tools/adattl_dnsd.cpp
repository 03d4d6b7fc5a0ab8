// adattl_dnsd — the sharded authoritative UDP DNS daemon running the
// paper's adaptive-TTL scheduler on real packets.
//
//   ./build/tools/adattl_dnsd --dnsd-port=5353 --dnsd-shards=4
//       --dnsd-batch=32 --policy=DRR2-TTL/S_K --servers=10.0.0.1,10.0.0.2
//   dig @127.0.0.1 -p 5353 www.site.org A     # watch addresses + TTLs rotate
//
// Architecture (DESIGN.md §15): N worker shards, each with its own
// SO_REUSEPORT socket, one blocking recvmmsg and one sendmmsg per wake-up
// and its own scheduler state — the hot decision path shares nothing,
// takes no locks and allocates nothing. SIGINT/SIGTERM wake the shards by
// shutting down their sockets' read side. Domain keys come from EDNS0
// Client-Subnet when the resolver forwards one (--dnsd-ecs, default on),
// with the legacy source-address hash as fallback, so the hidden-load
// estimate keys on real subnets.
//
// Registry knobs (--dnsd-port/--dnsd-shards/--dnsd-batch/--dnsd-ecs plus
// --policy/--domains/--seed) resolve through the parameter registry:
// scenario files, ADATTL_* env overrides and --help all work here exactly
// as in run_scenario. Any other registry knob set on the command line or
// in a scenario file exits 2 instead of being ignored. Daemon-only flags
// (--name, --servers, --max-queries, --duration, --stats-interval) are
// listed below.
#include <arpa/inet.h>
#include <netinet/in.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dnswire/daemon.h"
#include "experiment/cli.h"
#include "experiment/param_registry.h"
#include "flag_number.h"
#include "sim/text.h"

using namespace adattl;

namespace {

constexpr const char* kTool = "adattl_dnsd";
/// The registry knobs the daemon reads; every other one would be ignored.
const std::set<std::string> kDaemonKnobs = {"dnsd-port", "dnsd-shards", "dnsd-batch",
                                            "dnsd-ecs",  "policy",      "domains", "seed"};
dnswire::UdpDaemon* g_daemon = nullptr;
volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) {
  g_stop = 1;
  if (g_daemon != nullptr) g_daemon->request_stop();  // async-signal-safe
}

void usage() {
  std::fprintf(stderr,
               "usage: adattl_dnsd [registry knobs, see --help-knobs] plus:\n"
               "  --name=FQDN           site name to be authoritative for\n"
               "  --servers=IP,IP,...   server addresses (index == ServerId)\n"
               "  --capacities=C,C,...  per-server capacities (default: all equal)\n"
               "  --max-queries=N       exit after N answered+refused (testing hook)\n"
               "  --duration=SEC        exit after SEC seconds (0 = run until signal)\n"
               "  --stats-interval=SEC  periodic per-shard stats on stderr (0 = off)\n"
               "registry knobs: --dnsd-port, --dnsd-shards, --dnsd-batch, --dnsd-ecs,\n"
               "  --policy, --domains, --seed (scenario files + ADATTL_* env work too)\n");
}

void print_stats(const dnswire::UdpDaemon& daemon) {
  for (int i = 0; i < daemon.shards(); ++i) {
    const dnswire::ShardStatsSnapshot s = daemon.shard_stats(i);
    std::fprintf(stderr,
                 "adattl_dnsd: shard %d: rx %llu answered %llu refused %llu "
                 "kernel-drops %llu send-errors %llu ecs %llu (malformed %llu) "
                 "batches %llu decisions %llu\n",
                 i, static_cast<unsigned long long>(s.received),
                 static_cast<unsigned long long>(s.answered),
                 static_cast<unsigned long long>(s.refused),
                 static_cast<unsigned long long>(s.dropped_kernel),
                 static_cast<unsigned long long>(s.send_errors),
                 static_cast<unsigned long long>(s.ecs_keys),
                 static_cast<unsigned long long>(s.ecs_malformed),
                 static_cast<unsigned long long>(s.batches),
                 static_cast<unsigned long long>(s.decisions));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "www.site.org";
  std::string servers_arg = "10.0.0.1,10.0.0.2,10.0.0.3,10.0.0.4";
  std::string capacities_arg;
  std::uint64_t max_queries = 0;
  double duration_sec = 0.0;
  double stats_interval_sec = 0.0;

  // Daemon-only flags are peeled off here; everything else goes through
  // the parameter registry (which owns --dnsd-*, --policy, --domains,
  // --seed, --config=FILE and the ADATTL_* env layer).
  std::vector<std::string> registry_args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--name") {
      name = value;
    } else if (flag == "--servers") {
      servers_arg = value;
    } else if (flag == "--capacities") {
      capacities_arg = value;
    } else if (flag == "--max-queries") {
      max_queries = static_cast<std::uint64_t>(tools::flag_integer(kTool, flag, value, 1LL << 53));
    } else if (flag == "--duration") {
      duration_sec = tools::flag_number(kTool, flag, value);
    } else if (flag == "--stats-interval") {
      stats_interval_sec = tools::flag_number(kTool, flag, value);
    } else if (flag == "--help" || flag == "-h") {
      usage();
      return 2;
    } else if (flag == "--help-knobs") {
      std::fprintf(stderr, "%s", experiment::cli_usage().c_str());
      return 2;
    } else {
      registry_args.push_back(arg);
    }
  }

  experiment::ConfigResolution resolution;
  try {
    resolution = experiment::resolve_config(registry_args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adattl_dnsd: %s\n", e.what());
    usage();
    return 2;
  }
  // The ADATTL_* environment layer is not checked: benchmark shells export
  // knobs such as ADATTL_DURATION_SEC for the other tools.
  bool unread = false;
  for (const auto& [knob, source] : resolution.provenance) {
    if ((source.layer == experiment::ParamLayer::kCli ||
         source.layer == experiment::ParamLayer::kScenario) &&
        kDaemonKnobs.count(knob) == 0) {
      std::fprintf(stderr, "adattl_dnsd: knob '%s' (set by %s) is not read by the daemon\n",
                   knob.c_str(), experiment::param_layer_name(source.layer));
      unread = true;
    }
  }
  if (unread) {
    usage();
    return 2;
  }
  const experiment::CliOptions& opt = resolution.options;

  dnswire::DaemonConfig cfg;
  cfg.site_name = name;
  cfg.policy = opt.config.policy;
  cfg.num_domains = opt.config.num_domains;
  cfg.seed = opt.config.seed;
  cfg.port = opt.config.dnsd_port;
  cfg.shards = opt.config.dnsd_shards;
  cfg.batch = opt.config.dnsd_batch;
  cfg.ecs_enabled = opt.config.dnsd_ecs;
  cfg.max_queries = max_queries;
  for (const std::string& ip : text::split(servers_arg, ',')) {
    in_addr a{};
    if (inet_pton(AF_INET, ip.c_str(), &a) != 1) {
      std::fprintf(stderr, "adattl_dnsd: bad server address: %s\n", ip.c_str());
      return 2;
    }
    cfg.server_ipv4.push_back(ntohl(a.s_addr));
  }
  if (!capacities_arg.empty()) {
    for (const std::string& c : text::split(capacities_arg, ',')) {
      cfg.capacities.push_back(tools::flag_number(kTool, "--capacities", c));
    }
  }

  std::unique_ptr<dnswire::UdpDaemon> daemon;
  try {
    daemon = std::make_unique<dnswire::UdpDaemon>(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adattl_dnsd: %s\n", e.what());
    return 1;
  }
  g_daemon = daemon.get();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  daemon->start();
  std::fprintf(stderr,
               "adattl_dnsd: %s via %s on 127.0.0.1:%d — %d shard(s), batch %d, "
               "ECS %s, %zu servers, %d domains\n",
               name.c_str(), cfg.policy.c_str(), daemon->port(), daemon->shards(),
               cfg.batch, cfg.ecs_enabled ? "on" : "off", cfg.server_ipv4.size(),
               cfg.num_domains);

  const auto started = std::chrono::steady_clock::now();
  auto next_stats = started + std::chrono::duration<double>(
                                  stats_interval_sec > 0 ? stats_interval_sec : 1e9);
  while (!g_stop && !daemon->finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto now = std::chrono::steady_clock::now();
    if (duration_sec > 0 &&
        std::chrono::duration<double>(now - started).count() >= duration_sec) {
      daemon->request_stop();
      break;
    }
    if (stats_interval_sec > 0 && now >= next_stats) {
      print_stats(*daemon);
      next_stats = now + std::chrono::duration<double>(stats_interval_sec);
    }
  }
  daemon->stop();
  g_daemon = nullptr;

  print_stats(*daemon);
  const dnswire::ShardStatsSnapshot t = daemon->totals();
  std::fprintf(stderr, "adattl_dnsd: served %llu, refused %llu, kernel-drops %llu\n",
               static_cast<unsigned long long>(t.answered),
               static_cast<unsigned long long>(t.refused),
               static_cast<unsigned long long>(t.dropped_kernel));
  return 0;
}

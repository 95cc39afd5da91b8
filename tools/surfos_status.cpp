// surfos-status: one-shot operator dashboard for a running surfosd.
//
//   surfos-status [--socket PATH]
//
// Combines get_status and get_metrics into a single human-readable view:
// daemon health (epochs, epoch wall time, environment rebuilds, requests),
// the per-step fleet counters, the SLO watchdog verdicts, and the session
// table.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "daemon/client.hpp"
#include "daemon/messages.hpp"
#include "proto/serialize.hpp"

namespace {

namespace proto = surfos::proto;
using namespace surfos::daemon;

int fail(const surfos::Error& error) {
  std::fprintf(stderr, "surfos-status: %s\n", error.message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/surfosd.sock";
  if (const char* env = std::getenv("SURFOS_SOCKET")) socket_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: surfos-status [--socket PATH]\n");
      return 2;
    }
  }

  auto connected = Client::connect(socket_path);
  if (!connected.ok()) return fail(connected.error());
  Client client = std::move(connected.value());

  const auto fetched = client.request<MetricsReply>(
      proto::MsgType::kGetMetrics, {});
  if (!fetched.ok()) return fail(fetched.error());
  const MetricsReply& metrics = fetched.value();
  std::printf("surfosd @ %s\n", socket_path.c_str());
  std::printf("  epochs    %llu (last %.2f ms)\n",
              static_cast<unsigned long long>(metrics.epochs),
              metrics.last_epoch_ms);
  std::printf("  rebuilds  %llu\n",
              static_cast<unsigned long long>(metrics.env_rebuilds));
  std::printf("  requests  %llu\n",
              static_cast<unsigned long long>(metrics.requests));
  surfos::FleetReport report;
  if (proto::from_wire(metrics.report, report).ok()) {
    std::printf("  last step %zu site(s): %zu assignment(s), "
                "%zu optimization(s), %zu starved\n",
                report.sites.size(), report.total_assignments,
                report.total_optimizations, report.total_starved);
  }

  const auto replied =
      client.request<StatusReply>(proto::MsgType::kGetStatus, {});
  if (!replied.ok()) return fail(replied.error());
  const StatusReply& status = replied.value();
  std::printf("sessions:\n");
  for (const SessionRow& row : status.sessions) {
    std::printf("  %-16s %-8s %-8s %-11s goals %llu/%llu\n",
                row.app_id.c_str(), row.site_id.c_str(),
                row.running ? "running" : "stopped",
                row.satisfied ? "satisfied" : "unsatisfied",
                static_cast<unsigned long long>(row.tasks_met),
                static_cast<unsigned long long>(row.tasks_total));
  }
  if (status.sessions.empty()) std::printf("  (none)\n");
  std::printf("  %llu demand(s) queued for admission\n",
              static_cast<unsigned long long>(status.queue_depth));
  std::printf("slo: fleet %s\n", slo_state_name(status.fleet_health));
  for (const SiteHealth& row : status.health) {
    std::printf("  %-8s %-10s %llu epoch(s)%s%s\n", row.site_id.c_str(),
                slo_state_name(row.state),
                static_cast<unsigned long long>(row.epochs_in_state),
                row.reason.empty() ? "" : "  ", row.reason.c_str());
  }
  return 0;
}

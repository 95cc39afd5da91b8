// surfosd control-plane latency: request round-trip over the Unix-domain
// socket (p50/p99 across GetStatus, GetMetrics, and SubmitDemand), the same
// dispatch in-process (handle_request, isolating protocol cost from socket
// cost), and control-epoch wall-time jitter while requests are in flight —
// the "epochs are short so request latency stays bounded" claim of
// daemon/daemon.hpp, measured.
//
// Emits BENCH_daemon.json:
//   ./bench_daemon [requests] [epochs] [output.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "broker/demand.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/messages.hpp"
#include "proto/serialize.hpp"

using namespace surfos;

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Quantiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Quantiles quantiles(std::vector<double> samples) {
  Quantiles q;
  q.p50 = percentile(samples, 0.50);
  q.p99 = percentile(samples, 0.99);
  q.max = samples.empty()
              ? 0.0
              : *std::max_element(samples.begin(), samples.end());
  return q;
}

std::vector<std::uint8_t> demand_payload(const std::string& app_id) {
  return proto::to_wire(daemon::SubmitRequest{
      app_id, {},
      broker::demand_profile(broker::AppClass::kVideoStreaming,
                             "bench-endpoint"),
      {}});
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t requests =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 2000;
  const std::size_t epochs =
      argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 200;
  const std::string output = argc > 3 ? argv[3] : "BENCH_daemon.json";

  const std::string socket_path =
      "/tmp/surfosd_bench_" + std::to_string(::getpid()) + ".sock";
  daemon::DaemonOptions options;
  options.socket_path = socket_path;
  options.epoch_ms = 20;
  options.ticker = false;  // epochs measured explicitly below
  options.grid_n = 3;
  daemon::Daemon server(options);
  if (auto started = server.start(); !started.ok()) {
    std::fprintf(stderr, "bench_daemon: %s\n",
                 started.error().message.c_str());
    return 1;
  }

  // A populated control plane: a handful of live sessions.
  for (int i = 0; i < 4; ++i) {
    proto::WireFrame request;
    request.type = proto::MsgType::kSubmitDemand;
    request.trace_id = 1;
    request.payload = demand_payload("warm" + std::to_string(i));
    (void)server.handle_request(request);
  }
  server.run_epoch();

  auto connected = daemon::Client::connect(socket_path);
  if (!connected.ok()) {
    std::fprintf(stderr, "bench_daemon: %s\n",
                 connected.error().message.c_str());
    return 1;
  }
  daemon::Client client = std::move(connected.value());

  // --- Socket round trips ----------------------------------------------------
  std::vector<double> status_us, metrics_us;
  status_us.reserve(requests);
  metrics_us.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const double t0 = now_us();
    auto status = client.call(proto::MsgType::kGetStatus, {});
    const double t1 = now_us();
    auto metrics = client.call(proto::MsgType::kGetMetrics, {});
    const double t2 = now_us();
    if (!status.ok() || !metrics.ok()) {
      std::fprintf(stderr, "bench_daemon: request failed\n");
      return 1;
    }
    status_us.push_back(t1 - t0);
    metrics_us.push_back(t2 - t1);
  }

  // --- In-process dispatch (no socket) --------------------------------------
  std::vector<double> inproc_us;
  inproc_us.reserve(requests);
  proto::WireFrame status_request;
  status_request.type = proto::MsgType::kGetStatus;
  status_request.trace_id = 2;
  for (std::size_t i = 0; i < requests; ++i) {
    const double t0 = now_us();
    (void)server.handle_request(status_request);
    inproc_us.push_back(now_us() - t0);
  }

  // --- Epoch jitter while a client hammers status --------------------------
  std::vector<double> epoch_ms;
  epoch_ms.reserve(epochs);
  for (std::size_t i = 0; i < epochs; ++i) {
    (void)client.call(proto::MsgType::kGetStatus, {});
    const double t0 = now_us();
    server.run_epoch();
    epoch_ms.push_back((now_us() - t0) / 1000.0);
  }

  server.stop();

  const Quantiles status_q = quantiles(status_us);
  const Quantiles metrics_q = quantiles(metrics_us);
  const Quantiles inproc_q = quantiles(inproc_us);
  const Quantiles epoch_q = quantiles(epoch_ms);
  const double jitter_ms = epoch_q.p99 - epoch_q.p50;

  std::ofstream os(output);
  os << "{\n";
  bench::write_meta(os);
  os << "  \"benchmark\": \"daemon_round_trip\",\n";
  os << "  \"requests\": " << requests << ",\n";
  os << "  \"epochs\": " << epochs << ",\n";
  os << "  \"socket_status_p50_us\": " << status_q.p50 << ",\n";
  os << "  \"socket_status_p99_us\": " << status_q.p99 << ",\n";
  os << "  \"socket_metrics_p50_us\": " << metrics_q.p50 << ",\n";
  os << "  \"socket_metrics_p99_us\": " << metrics_q.p99 << ",\n";
  os << "  \"inproc_status_p50_us\": " << inproc_q.p50 << ",\n";
  os << "  \"inproc_status_p99_us\": " << inproc_q.p99 << ",\n";
  os << "  \"epoch_p50_ms\": " << epoch_q.p50 << ",\n";
  os << "  \"epoch_p99_ms\": " << epoch_q.p99 << ",\n";
  os << "  \"epoch_max_ms\": " << epoch_q.max << ",\n";
  os << "  \"epoch_jitter_p99_minus_p50_ms\": " << jitter_ms << "\n";
  os << "}\n";
  os.close();

  std::printf("socket status round trip: p50 %.1f us, p99 %.1f us\n",
              status_q.p50, status_q.p99);
  std::printf("in-process dispatch:      p50 %.1f us, p99 %.1f us\n",
              inproc_q.p50, inproc_q.p99);
  std::printf("epoch: p50 %.3f ms, p99 %.3f ms (jitter %.3f ms)\n",
              epoch_q.p50, epoch_q.p99, jitter_ms);
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

// surfosd: the SurfOS control daemon (see src/daemon/daemon.hpp).
//
//   surfosd --socket /run/surfos.sock --snapshot /var/lib/surfos.snap
//           [--sites N] [--grid N] [--epoch-ms MS] [--restore]
//
// SIGTERM/SIGINT write a snapshot (when --snapshot is set) before shutting
// down; a restart with --restore resumes every session under its original
// trace id and re-submits queued demands through admission. Knobs come from
// the SURFOS_* environment once at startup; all but the construction-time
// rows (SURFOS_THREADS, SURFOS_TRACE_BUFFER and SURFOS_TRACE) are
// hot-reloadable afterwards via `surfos-ctl set-knob`.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/config.hpp"
#include "daemon/daemon.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 't';
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--snapshot PATH] [--sites N]\n"
               "          [--grid N] [--epoch-ms MS] [--restore]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  surfos::daemon::DaemonOptions options;
  options.socket_path = "/tmp/surfosd.sock";
  bool restore = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--socket" && has_value) {
      options.socket_path = argv[++i];
    } else if (arg == "--snapshot" && has_value) {
      options.snapshot_path = argv[++i];
    } else if (arg == "--sites" && has_value) {
      options.sites = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--grid" && has_value) {
      options.grid_n = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--epoch-ms" && has_value) {
      options.epoch_ms = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--restore") {
      restore = true;
    } else {
      return usage(argv[0]);
    }
  }

  // One env capture before any thread exists; set-knob swaps copies in.
  surfos::core::install_config(surfos::core::Config::from_env());

  surfos::daemon::Daemon daemon(std::move(options));
  if (restore) {
    if (auto loaded = daemon.load_snapshot(); !loaded.ok()) {
      std::fprintf(stderr, "surfosd: restore failed: %s\n",
                   loaded.error().message.c_str());
      return 1;
    }
  }
  if (auto started = daemon.start(); !started.ok()) {
    std::fprintf(stderr, "surfosd: %s\n", started.error().message.c_str());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "surfosd: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action{};
  action.sa_handler = on_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  // Exit on either a signal (pipe readable) or a wire-level shutdown
  // request (daemon.running() drops).
  bool signaled = false;
  while (daemon.running()) {
    pollfd p{g_signal_pipe[0], POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (r > 0 && (p.revents & POLLIN)) {
      signaled = true;
      break;
    }
  }

  if (signaled && !daemon.options().snapshot_path.empty()) {
    if (auto saved = daemon.save_snapshot(); !saved.ok()) {
      std::fprintf(stderr, "surfosd: snapshot on shutdown failed: %s\n",
                   saved.error().message.c_str());
    }
  }
  daemon.stop();
  return 0;
}

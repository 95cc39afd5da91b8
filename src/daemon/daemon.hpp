// surfosd: the long-running SurfOS control daemon (ROADMAP item 1).
//
// Owns a Fleet (one SurfOS per site, each over a DynamicEnvironment with a
// moving human blocker), a ServiceBroker per site, and two threads:
//
//   - the TICKER runs continuous control epochs: advance the simulated
//     clock, move the blockers (in place; the step re-plans only what
//     they touched), drain the admission queue, step every site, escalate
//     unsatisfied apps and GC endpoints, then assemble the FleetReport's
//     bytes for get_metrics (each site's record is encoded on the pool,
//     right after the site's step);
//   - the SERVER poll()s a Unix-domain socket and speaks the versioned TLV
//     protocol (proto/wire.hpp). Every request is handled under a
//     TraceScope of the request frame's trace id, and every reply echoes
//     it — the admit->applied trace join extends across the process
//     boundary.
//
// Both threads share state under one mutex; epochs are short (tens of ms at
// daemon scale) so request latency stays bounded.
//
// Crash/restart drill: SIGTERM (tools/surfosd.cpp) calls save_snapshot();
// a restarted daemon load_snapshot()s, re-creates sessions under their
// original trace ids, re-submits queued demands through admission, and
// serves the pre-restart FleetReport bytes verbatim until its first epoch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "core/status.hpp"
#include "daemon/slo.hpp"
#include "daemon/subscription.hpp"
#include "em/antenna.hpp"
#include "proto/wire.hpp"
#include "sim/dynamics.hpp"

namespace surfos::daemon {

struct DaemonOptions {
  std::string socket_path;    ///< Unix-domain socket to serve on.
  std::string snapshot_path;  ///< Where save_snapshot() writes.
  std::size_t sites = 1;      ///< Fleet size ("site0", "site1", ...).
  std::size_t grid_n = 3;     ///< Coverage-grid resolution per site.
  /// Control-epoch period in wall milliseconds; 0 = SURFOS_EPOCH_MS knob
  /// (default 20). The simulated clock advances by the same amount.
  std::uint64_t epoch_ms = 0;
  /// Run epochs on the background ticker thread. Tests turn this off and
  /// drive run_epoch() by hand for determinism.
  bool ticker = true;
};

struct DaemonStats {
  std::uint64_t epochs = 0;
  std::uint64_t requests = 0;
  std::uint64_t malformed = 0;      ///< Rejected frames (all close-worthy causes).
  /// Site-epochs in which a blocker moved (kept under its wire name).
  std::uint64_t env_rebuilds = 0;
  double last_epoch_ms = 0.0;       ///< Wall time of the last epoch.
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket and starts the server (and, unless options.ticker is
  /// false, the ticker). kIoError when the socket cannot be bound.
  Result<void> start();
  /// Stops threads and closes the socket. Idempotent.
  void stop();
  bool running() const noexcept { return running_.load(); }
  /// Blocks until stop() (a shutdown request or signal handler).
  void wait();

  /// One control epoch (see file comment). The ticker calls this; tests
  /// call it directly with options.ticker = false.
  void run_epoch();

  Result<void> save_snapshot();
  /// Restores sessions/queue/endpoints/trace state from snapshot_path.
  /// Call before start(), on a freshly built daemon.
  Result<void> load_snapshot();

  /// Full request dispatch: one request frame in, one reply frame out (the
  /// reply always echoes the request's trace id). Public so tests and the
  /// loopback bench can exercise the protocol without a socket.
  /// `client_fd` identifies the serving connection for subscription
  /// requests; -1 (loopback callers) makes kSubscribe answer kUnavailable.
  proto::WireFrame handle_request(const proto::WireFrame& request,
                                  int client_fd = -1);

  DaemonStats stats() const;
  const DaemonOptions& options() const noexcept { return options_; }
  /// The serialized last FleetReport (what get_metrics serves).
  std::vector<std::uint8_t> last_report_wire() const;

  /// The SLO watchdog's verdicts from the last completed epoch.
  std::vector<SiteHealth> health() const;
  /// Live subscription/outbox accounting (published / dropped events).
  SubscriptionStats subscription_stats() const { return subs_.stats(); }
  /// The streaming registry itself — tests and benches enqueue/drain
  /// directly through it.
  SubscriptionRegistry& subscriptions() noexcept { return subs_; }
  /// The sites' control planes (epochs mutate them under the epoch mutex;
  /// callers outside the daemon's own threads should prefer the wire
  /// protocol).
  const Fleet& fleet() const noexcept { return fleet_; }

 private:
  struct Site {
    std::string id;
    std::unique_ptr<em::AntennaPattern> antenna;
    std::unique_ptr<sim::DynamicEnvironment> world;
    SurfOS* os = nullptr;  ///< Owned by fleet_.
    std::set<std::string> auto_endpoints;  ///< Registered on demand.
  };

  void build_world();
  Site* find_site_entry(const std::string& site_id);
  /// Registers an unknown endpoint at a deterministic in-room position
  /// derived from its name (the "arriving endpoints" path).
  void ensure_endpoint(Site& site, const std::string& endpoint_id);
  /// Deregisters auto-registered endpoints that no running session and no
  /// queued demand names (the "departing endpoints" path; runs at the end of
  /// every epoch, so a stopped app's endpoint departs at the next epoch).
  void gc_endpoints(Site& site);

  // Per-command handlers; all run under mu_ with the request TraceScope.
  proto::WireFrame handle_hello(const proto::WireFrame& request);
  proto::WireFrame handle_submit(const proto::WireFrame& request);
  proto::WireFrame handle_stop_resume(const proto::WireFrame& request,
                                      bool resume);
  proto::WireFrame handle_status(const proto::WireFrame& request);
  proto::WireFrame handle_metrics(const proto::WireFrame& request);
  proto::WireFrame handle_traces(const proto::WireFrame& request);
  proto::WireFrame handle_snapshot(const proto::WireFrame& request);
  proto::WireFrame handle_restore(const proto::WireFrame& request);
  proto::WireFrame handle_set_knob(const proto::WireFrame& request);
  proto::WireFrame handle_get_knobs(const proto::WireFrame& request);
  proto::WireFrame handle_subscribe(const proto::WireFrame& request,
                                    int client_fd);
  proto::WireFrame handle_unsubscribe(const proto::WireFrame& request,
                                      int client_fd);

  /// Applies a parsed snapshot under mu_ (shared by load_snapshot and the
  /// wire-level kRestore).
  Result<void> apply_snapshot(const struct DaemonSnapshot& snapshot);

  void ticker_main();
  void server_main();
  /// Drains complete frames from a connection buffer; returns false when
  /// the connection must close (fatal frame error).
  bool service_connection(int fd, std::vector<std::uint8_t>& buffer);

  DaemonOptions options_;
  em::LinkBudget budget_;

  mutable std::mutex mu_;
  Fleet fleet_;
  std::vector<Site> sites_;
  std::vector<std::uint8_t> last_report_wire_;
  /// Per-site kSite records of the last epoch, in site-id order (the
  /// fleet's index order), each written by the pool worker that stepped
  /// the site and reused across epochs.
  std::vector<std::vector<std::uint8_t>> site_wire_;
  DaemonStats stats_;
  std::uint64_t sim_now_us_ = 0;

  // Streaming observability (all under mu_ except subs_, which has its own
  // lock; lock order is mu_ -> subs_ internal mutex).
  SloWatchdog watchdog_;
  std::vector<SiteHealth> latest_health_;
  SubscriptionRegistry subs_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread ticker_;
  std::thread server_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
};

}  // namespace surfos::daemon

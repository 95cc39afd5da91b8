// Crash/restart snapshot for surfosd (daemon/daemon.hpp).
//
// On SIGTERM (or an explicit `surfos-ctl snapshot`) the daemon serializes
// enough state to resume service after a restart:
//   - every app session with its ORIGINAL deterministic trace id and demand,
//     so the restarted broker re-creates the same causal chains;
//   - the admission queue's in-flight demands, re-submitted through the
//     weighted-fair queue on restore (never silently admitted);
//   - per-site broker trace sequence counters (the id stream continues
//     instead of reusing ids);
//   - dynamically registered endpoints (a restored demand must find the
//     endpoint it names);
//   - the serialized last FleetReport, restored verbatim — the byte-identity
//     guarantee the restart drill checks via get_metrics.
//
// The file is a 12-byte header — magic "SFSN", format version and CRC-32
// of the payload — followed by one TLV stream with the
// same versioned, unknown-tag-skipping encoding as the wire protocol
// (proto/serialize.hpp). It is written atomically (temp file, fsync,
// rename), and a load checks the magic, version and checksum before it
// decodes anything, so a damaged file is refused as a whole.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "broker/demand.hpp"
#include "core/status.hpp"

namespace surfos::daemon {

struct SessionRecord {
  std::string site_id;
  std::string app_id;
  bool running = true;
  std::uint64_t trace_id = 0;
  broker::AppDemand demand;
};

struct QueuedRecord {
  std::string site_id;
  std::string app_id;
  std::uint64_t priority = 0;
  broker::AppDemand demand;
};

struct SeqRecord {
  std::string site_id;
  std::uint64_t trace_seq = 0;
};

struct EndpointRecord {
  std::string site_id;
  std::string endpoint_id;
  std::uint8_t kind = 0;  ///< hal::EndpointKind numeric value.
  double x = 0.0, y = 0.0, z = 0.0;
};

struct DaemonSnapshot {
  std::uint64_t sim_now_us = 0;  ///< Simulated clock at snapshot time.
  std::uint64_t epochs = 0;      ///< Control epochs completed.
  std::vector<SessionRecord> sessions;
  std::vector<QueuedRecord> queued;
  std::vector<SeqRecord> trace_seqs;
  std::vector<EndpointRecord> endpoints;
  std::vector<std::uint8_t> last_report_wire;  ///< Serialized FleetReport.
};

void to_wire(const DaemonSnapshot& snapshot, std::vector<std::uint8_t>& out);
Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       DaemonSnapshot& out);

/// Atomic write (temp file, fsync, rename) returning the bytes written, and
/// whole-file read. kIoError on filesystem failure (a failed fsync
/// included), kMalformedFrame on a damaged file (short header, wrong magic
/// or version, checksum mismatch, undecodable payload).
Result<std::uint64_t> save_snapshot_file(const DaemonSnapshot& snapshot,
                                         const std::string& path);
Result<DaemonSnapshot> load_snapshot_file(const std::string& path);

}  // namespace surfos::daemon

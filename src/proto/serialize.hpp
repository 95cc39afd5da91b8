// Versioned to_wire/from_wire for the control-plane report and demand
// structs — the payloads of the surfosd protocol (proto/wire.hpp) and of the
// crash/restart snapshot (daemon/snapshot.hpp).
//
// Encoding contract, shared by every struct here:
//   - tag 1 is always a u16 struct version (kStructVersion). Parsers accept
//     any version >= 1 — newer minor versions only *add* tags, and unknown
//     tags are skipped — so an old client reads the fields it knows from a
//     new daemon's reply. Version 0 (or a missing version tag) is malformed.
//   - every field has an explicit tag; tags are append-only and never reused.
//   - encoding is deterministic: fixed field order, fixed-width little-endian
//     integers, f64 as IEEE bit patterns. Two equal structs serialize to
//     identical bytes (the snapshot/restore drill's byte-identity check
//     leans on this).
//   - from_wire returns Result (core/status.hpp): kMalformedFrame on
//     structural damage, never an exception — these parsers face wire input.
//
// These are free functions rather than struct methods so orch/core/broker
// stay independent of the wire layer (surfos_proto links surfos_core, not
// the other way around).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "broker/demand.hpp"
#include "core/fleet.hpp"
#include "core/status.hpp"
#include "orch/orchestrator.hpp"

namespace surfos::proto {

/// Current encoding version of every struct below. Bump only when a field's
/// meaning changes (adding tags does NOT bump it).
inline constexpr std::uint16_t kStructVersion = 1;

// Each type has one append encoder, which writes its TLV stream at the end
// of `out` (a parent record nests it in place with TlvWriter::nest), and one
// decoder, which fills `out` or reports kMalformedFrame. The generic
// to_wire(value) below returns a fresh buffer for any type with an append
// encoder, including the daemon's messages (daemon/messages.hpp).

void to_wire(const orch::StepTrace& trace, std::vector<std::uint8_t>& out);
Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::StepTrace& out);

void to_wire(const orch::TaskReport& report, std::vector<std::uint8_t>& out);
Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::TaskReport& out);

void to_wire(const orch::StepReport& report, std::vector<std::uint8_t>& out);
Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::StepReport& out);

// A FleetReport is written in two steps: each site's kSite record (tag,
// length and body) on its own, then the assembly, which writes the version,
// the site records in site order, the totals and the fleet trace.
// `site_records` is the records' bytes in site order, cut into any number
// of chunks. surfosd runs the first step for each site inside
// Fleet::step_all's per-site body, on the pool, into one chunk per site,
// and the assembly in its serial epoch tail; to_wire(FleetReport) runs the
// same two functions in a row, with every record in one chunk.
void append_site_record(const SiteReport& site, std::vector<std::uint8_t>& out);
void assemble_fleet_report(
    const FleetReport& report,
    std::span<const std::vector<std::uint8_t>> site_records,
    std::vector<std::uint8_t>& out);

void to_wire(const FleetReport& report, std::vector<std::uint8_t>& out);
Result<void> from_wire(std::span<const std::uint8_t> bytes, FleetReport& out);

void to_wire(const broker::AppDemand& demand, std::vector<std::uint8_t>& out);
Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       broker::AppDemand& out);

/// Fresh-buffer form of every append encoder above (found by ordinary
/// lookup) and of those declared beside their own types (found by
/// argument-dependent lookup).
template <typename T>
std::vector<std::uint8_t> to_wire(const T& value) {
  std::vector<std::uint8_t> out;
  to_wire(value, out);
  return out;
}

}  // namespace surfos::proto

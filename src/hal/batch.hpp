// Write-combining config transactions (fleet-scale control plane).
//
// The orchestrator's actuate stage historically issued one kWriteConfig
// frame per (device, slot) per assignment, immediately. At fleet scale the
// control link becomes the bottleneck: a control epoch touching a panel from
// several assignments pays the full serialize/frame/CRC cost repeatedly.
//
// WriteCombiner turns the actuate stage into a staged transaction: stage()
// calls accumulate the *final* desired config per (device, slot) — later
// stages of the same epoch overwrite earlier ones (write combining) — and
// flush() issues at most one full write_config per dirty (device, slot). It
// diffs against the driver's stored slot in wire-code space, so a slot
// already at its target costs zero frames (elision).
//
// Equivalence contract: flushing must leave exactly the hardware state a
// plain write_config(final_config) would. The diff is therefore computed on
// the u16/u8 wire codes of SurfaceConfig::serialize (what the frame would
// transmit), and a slot is elided only while its driver has no frame in
// flight: behind a write still being retransmitted, the stored slot is stale
// and the late write would overwrite the target the combiner skipped.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "hal/driver.hpp"
#include "surface/config.hpp"
#include "telemetry/trace.hpp"

namespace surfos::hal {

/// Wire codes matching SurfaceConfig::serialize exactly — the diff currency.
std::uint16_t phase_code(double radians) noexcept;
std::uint8_t amplitude_code(double amplitude) noexcept;

/// What one flush() did, for StepTrace accounting and the fleet bench.
struct FlushStats {
  std::size_t transactions = 0;      ///< Config-write frames issued.
  /// Elements whose wire codes changed — also what a naive writer issuing
  /// one transaction per changed element would pay.
  std::size_t element_updates = 0;
  std::size_t writes_staged = 0;     ///< stage() calls this epoch.
  std::size_t writes_coalesced = 0;  ///< stage() calls absorbed by a later one.
  /// Dirty slots already at their target: empty diff, no frame in flight.
  std::size_t writes_elided = 0;
  std::size_t selects = 0;           ///< kSelectConfig frames issued.
  Micros worst_delay_us = 0;         ///< Worst control delay among frames.
};

/// Per-epoch write-combining buffer. Not thread-safe: each orchestrator owns
/// one and runs its step cycle on one thread (fleet parallelism is per-site).
class WriteCombiner {
 public:
  /// Stages `config` as the final state of (driver, slot) this epoch; a later
  /// stage() for the same key replaces the pending config (coalescing). When
  /// `activate` is set, flush() also issues a kSelectConfig for the slot.
  /// The caller's ambient trace context is captured with the entry and
  /// reinstalled around the eventual frame build, so driver write spans keep
  /// carrying the staging intent's trace id across the deferred flush.
  void stage(SurfaceDriver& driver, std::uint16_t slot,
             surface::SurfaceConfig config, bool activate);

  bool empty() const noexcept { return pending_.empty(); }
  std::size_t staged() const noexcept { return staged_; }
  std::size_t coalesced() const noexcept { return coalesced_; }

  /// Issues at most one write_config per dirty (device, slot), in
  /// deterministic (device id, slot) order, and clears the buffer. The
  /// caller advances the sim clock past `worst_delay_us` and polls the
  /// registry so the writes apply.
  FlushStats flush();

 private:
  struct Pending {
    SurfaceDriver* driver = nullptr;
    surface::SurfaceConfig config;
    bool activate = false;
    telemetry::TraceContext trace;  ///< Ambient context at stage() time.
  };
  std::map<std::pair<std::string, std::uint16_t>, Pending> pending_;
  std::size_t staged_ = 0;
  std::size_t coalesced_ = 0;
};

}  // namespace surfos::hal

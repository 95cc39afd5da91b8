// Write-combining config transactions (fleet-scale control plane).
//
// The orchestrator's actuate stage historically issued one kWriteConfig
// frame per (device, slot) per assignment, immediately. At fleet scale the
// control link becomes the bottleneck: a control epoch touching a panel from
// several assignments pays the full serialize/frame/CRC cost repeatedly and
// transmits the whole element array even when one column moved.
//
// WriteCombiner turns the actuate stage into a staged transaction: stage()
// calls accumulate the *final* desired config per (device, slot) — later
// stages of the same epoch overwrite earlier ones (write combining) — and
// flush() issues at most one control transaction per dirty (device, slot),
// diffing against the driver's stored slot in wire-code space so unchanged
// slots cost zero frames and sparse changes ride a kWriteElements frame.
//
// Equivalence contract: flushing must leave exactly the hardware state a
// plain write_config(final_config) would. Diffs are therefore computed on
// the u16/u8 wire codes of SurfaceConfig::serialize (what a full frame
// would transmit), and the sparse path is only taken for element-granular
// panels, where SurfacePanel::realizable() is element-wise (group-granular
// panels project through a circular mean over control groups, so patching a
// subset of elements diverges from writing the full config).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "hal/driver.hpp"
#include "surface/config.hpp"
#include "telemetry/trace.hpp"

namespace surfos::hal {

/// Wire codes matching SurfaceConfig::serialize exactly — the diff currency.
std::uint16_t phase_code(double radians) noexcept;
std::uint8_t amplitude_code(double amplitude) noexcept;

/// kWriteElements payload codec. Layout (little-endian):
///   0..3  update count N
///   4..   N records of { u32 element index, u16 phase code, u8 amp code }
std::vector<std::uint8_t> encode_element_updates(
    std::span<const ElementUpdate> updates);
/// Throws std::invalid_argument on a malformed payload.
std::vector<ElementUpdate> decode_element_updates(
    std::span<const std::uint8_t> payload);

/// What one flush() did, for StepTrace accounting and the fleet bench.
struct FlushStats {
  std::size_t transactions = 0;      ///< Config-write frames issued.
  /// Elements whose wire codes changed — also what a naive writer issuing
  /// one transaction per changed element would pay.
  std::size_t element_updates = 0;
  std::size_t writes_staged = 0;     ///< stage() calls this epoch.
  std::size_t writes_coalesced = 0;  ///< stage() calls absorbed by a later one.
  std::size_t writes_elided = 0;     ///< Dirty slots whose diff was empty.
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

  /// Issues at most one transaction per dirty (device, slot), in
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

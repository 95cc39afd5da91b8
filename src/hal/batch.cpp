#include "hal/batch.hpp"

#include <cmath>
#include <stdexcept>

#include "surface/types.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace surfos::hal {

namespace {

constexpr std::size_t kRecordSize = 7;  // u32 index + u16 phase + u8 amp

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

}  // namespace

std::uint16_t phase_code(double radians) noexcept {
  return static_cast<std::uint16_t>(
      std::lround(radians / util::kTwoPi * 65535.0));
}

std::uint8_t amplitude_code(double amplitude) noexcept {
  return static_cast<std::uint8_t>(std::lround(amplitude * 255.0));
}

std::vector<std::uint8_t> encode_element_updates(
    std::span<const ElementUpdate> updates) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(4 + updates.size() * kRecordSize);
  put_u32(bytes, static_cast<std::uint32_t>(updates.size()));
  for (const ElementUpdate& u : updates) {
    put_u32(bytes, u.index);
    const std::uint16_t phase = phase_code(u.phase);
    bytes.push_back(static_cast<std::uint8_t>(phase & 0xFF));
    bytes.push_back(static_cast<std::uint8_t>(phase >> 8));
    bytes.push_back(amplitude_code(u.amplitude));
  }
  return bytes;
}

std::vector<ElementUpdate> decode_element_updates(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) {
    throw std::invalid_argument("ElementUpdate: short buffer");
  }
  const std::uint32_t n = get_u32(payload, 0);
  if (payload.size() != 4 + static_cast<std::size_t>(n) * kRecordSize) {
    throw std::invalid_argument("ElementUpdate: truncated buffer");
  }
  std::vector<ElementUpdate> updates(n);
  std::size_t at = 4;
  for (std::uint32_t i = 0; i < n; ++i) {
    updates[i].index = get_u32(payload, at);
    const std::uint16_t phase = static_cast<std::uint16_t>(
        payload[at + 4] | (static_cast<std::uint16_t>(payload[at + 5]) << 8));
    updates[i].phase = static_cast<double>(phase) / 65535.0 * util::kTwoPi;
    updates[i].amplitude = static_cast<double>(payload[at + 6]) / 255.0;
    at += kRecordSize;
  }
  return updates;
}

// --- WriteCombiner -----------------------------------------------------------

void WriteCombiner::stage(SurfaceDriver& driver, std::uint16_t slot,
                          surface::SurfaceConfig config, bool activate) {
  ++staged_;
  auto [it, inserted] = pending_.try_emplace({driver.device_id(), slot});
  if (!inserted) ++coalesced_;
  it->second.driver = &driver;
  it->second.config = std::move(config);
  it->second.activate = it->second.activate || activate;
  it->second.trace = telemetry::current_trace();
}

FlushStats WriteCombiner::flush() {
  FlushStats stats;
  stats.writes_staged = staged_;
  stats.writes_coalesced = coalesced_;
  for (auto& [key, pending] : pending_) {
    // Reattribute the deferred frame build to the intent that staged it.
    telemetry::TraceScope trace_scope(pending.trace);
    SurfaceDriver& driver = *pending.driver;
    const std::uint16_t slot = key.second;
    const surface::SurfaceConfig& target = pending.config;
    const bool sized = target.size() == driver.panel().element_count();

    // Diff against the stored slot in wire-code space: an element whose
    // serialized u16/u8 codes are unchanged would be transmitted bit-for-bit
    // identically by a full frame, so skipping it cannot change the final
    // hardware state (stored values are decode-side fixed points; see
    // hal/batch.hpp header comment).
    std::vector<ElementUpdate> changed;
    if (sized) {
      const surface::SurfaceConfig& stored = driver.stored_config(slot);
      for (std::size_t i = 0; i < target.size(); ++i) {
        if (phase_code(target.phase(i)) != phase_code(stored.phase(i)) ||
            amplitude_code(target.amplitude(i)) !=
                amplitude_code(stored.amplitude(i))) {
          changed.push_back({static_cast<std::uint32_t>(i), target.phase(i),
                             target.amplitude(i)});
        }
      }
    }

    const bool element_granular =
        driver.spec().granularity == surface::ControlGranularity::kElement;
    const auto note_write = [&](DriverStatus status, std::size_t elements) {
      if (status != DriverStatus::kOk) return;
      ++stats.transactions;
      stats.element_updates += elements;
      const Micros delay = driver.spec().control_delay_us;
      if (!driver.spec().is_passive() && delay > stats.worst_delay_us) {
        stats.worst_delay_us = delay;
      }
    };

    if (!sized) {
      // Let the driver report the size mismatch exactly as an unbatched
      // write_config would have.
      note_write(driver.write_config(slot, target), 0);
    } else if (changed.empty()) {
      ++stats.writes_elided;
    } else {
      // One transaction per dirty (device, slot). Ride the sparse frame only
      // when it is actually smaller than a full one (record layouts: 7
      // bytes/changed element vs 3 bytes/element full frame) and the
      // hardware realizes configs element-wise.
      DriverStatus status = DriverStatus::kUnsupported;
      if (element_granular &&
          changed.size() * kRecordSize < target.size() * 3) {
        status = driver.write_elements(slot, changed);
      }
      if (status == DriverStatus::kUnsupported) {
        status = driver.write_config(slot, target);
      }
      note_write(status, changed.size());
    }

    if (pending.activate) {
      if (driver.select_config(slot) == DriverStatus::kOk) {
        ++stats.selects;
        const Micros delay = driver.spec().control_delay_us;
        if (!driver.spec().is_passive() && delay > stats.worst_delay_us) {
          stats.worst_delay_us = delay;
        }
      }
    }
  }
  pending_.clear();
  staged_ = 0;
  coalesced_ = 0;
  SURFOS_COUNT_N("hal.batch.writes_staged", stats.writes_staged);
  SURFOS_COUNT_N("hal.batch.writes_coalesced", stats.writes_coalesced);
  SURFOS_COUNT_N("hal.batch.writes_elided", stats.writes_elided);
  SURFOS_COUNT_N("hal.batch.transactions", stats.transactions);
  SURFOS_COUNT_N("hal.batch.element_updates", stats.element_updates);
  return stats;
}

}  // namespace surfos::hal

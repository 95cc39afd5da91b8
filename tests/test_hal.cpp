// Hardware manager tests: CRC, the control-plane wire protocol (round trips
// and every decode failure), the simulated control link (latency, loss,
// corruption — failure injection), drivers (programmable async apply,
// passive one-time fabrication), the device registry, endpoint-feedback
// codebook selection, and the write combiner.
#include <gtest/gtest.h>

#include "em/propagation.hpp"
#include "hal/batch.hpp"
#include "hal/crc32.hpp"
#include "hal/driver.hpp"
#include "hal/codebook.hpp"
#include "hal/feedback.hpp"
#include "hal/link.hpp"
#include "hal/protocol.hpp"
#include "hal/registry.hpp"
#include "util/units.hpp"

namespace surfos::hal {
namespace {

surface::SurfacePanel test_panel(
    surface::ControlGranularity granularity =
        surface::ControlGranularity::kElement) {
  surface::ElementDesign d;
  d.spacing_m = 0.005;
  d.insertion_loss_db = 1.0;
  return surface::SurfacePanel("panel", geom::Frame({0, 0, 0}, {0, 0, 1}), 4,
                               4, d, surface::OperationMode::kReflective,
                               surface::Reconfigurability::kProgrammable,
                               granularity);
}

HardwareSpec test_spec(Micros delay = 300, std::size_t slots = 4) {
  HardwareSpec spec;
  spec.model = "test";
  spec.control_delay_us = delay;
  spec.config_slots = slots;
  spec.band_response[em::Band::k28GHz] = 0.9;
  return spec;
}

// --- crc32 -----------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const std::uint32_t original = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(crc32(data), original);
}

// --- protocol ----------------------------------------------------------------------

TEST(Protocol, EncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = MessageType::kWriteConfig;
  frame.sequence = 0xDEADBEEF;
  frame.slot = 7;
  frame.payload = {1, 2, 3, 4, 5};
  const auto bytes = encode_frame(frame);
  const DecodeResult decoded = decode_frame(bytes);
  ASSERT_TRUE(decoded.frame.has_value());
  EXPECT_EQ(decoded.consumed, bytes.size());
  EXPECT_EQ(decoded.frame->type, MessageType::kWriteConfig);
  EXPECT_EQ(decoded.frame->sequence, 0xDEADBEEFu);
  EXPECT_EQ(decoded.frame->slot, 7);
  EXPECT_EQ(decoded.frame->payload, frame.payload);
}

TEST(Protocol, EmptyPayloadRoundTrip) {
  Frame frame;
  frame.type = MessageType::kSelectConfig;
  frame.slot = 3;
  const auto bytes = encode_frame(frame);
  const DecodeResult decoded = decode_frame(bytes);
  ASSERT_TRUE(decoded.frame.has_value());
  EXPECT_TRUE(decoded.frame->payload.empty());
}

TEST(Protocol, TruncatedBufferReported) {
  Frame frame;
  frame.payload = {9, 9, 9};
  auto bytes = encode_frame(frame);
  bytes.resize(bytes.size() - 2);
  const DecodeResult decoded = decode_frame(bytes);
  EXPECT_FALSE(decoded.frame.has_value());
  EXPECT_EQ(decoded.error, DecodeError::kTruncated);
}

TEST(Protocol, BadMagicConsumesOneByteForResync) {
  auto bytes = encode_frame(Frame{});
  bytes[0] = 0x00;
  const DecodeResult decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.error, DecodeError::kBadMagic);
  EXPECT_EQ(decoded.consumed, 1u);
}

TEST(Protocol, BadCrcDetected) {
  Frame frame;
  frame.payload = {1, 2, 3};
  auto bytes = encode_frame(frame);
  bytes[kHeaderSize] ^= 0x01;  // flip a payload bit
  const DecodeResult decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.error, DecodeError::kBadCrc);
  EXPECT_EQ(decoded.consumed, bytes.size());
}

TEST(Protocol, BadVersionAndTypeDetected) {
  auto bytes = encode_frame(Frame{});
  bytes[2] = 99;  // version — CRC now stale, but version is checked first
  EXPECT_EQ(decode_frame(bytes).error, DecodeError::kBadVersion);
  bytes = encode_frame(Frame{});
  bytes[3] = 200;  // type
  EXPECT_EQ(decode_frame(bytes).error, DecodeError::kBadType);
}

TEST(Protocol, OnlyWriteSelectAndAckTypesDecode) {
  for (const MessageType type : {MessageType::kWriteConfig,
                                 MessageType::kSelectConfig,
                                 MessageType::kAck}) {
    Frame frame;
    frame.type = type;
    frame.slot = 2;
    const DecodeResult decoded = decode_frame(encode_frame(frame));
    ASSERT_TRUE(decoded.frame.has_value());
    EXPECT_EQ(decoded.frame->type, type);
  }
  // The values between and after them are no frame type.
  for (const std::uint8_t raw : {3, 5, 6}) {
    Frame frame;
    frame.type = static_cast<MessageType>(raw);
    EXPECT_EQ(decode_frame(encode_frame(frame)).error, DecodeError::kBadType)
        << int{raw};
  }
}

// --- link --------------------------------------------------------------------------

TEST(Link, DeliversAfterLatency) {
  SimClock clock;
  ControlLink link(&clock, {500, 0.0, 0.0, 1});
  const std::uint8_t data[] = {1, 2, 3};
  link.send(data);
  EXPECT_TRUE(link.receive_ready().empty());
  clock.advance(499);
  EXPECT_TRUE(link.receive_ready().empty());
  clock.advance(1);
  const auto ready = link.receive_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(link.receive_ready().empty());  // consumed
}

TEST(Link, PreservesOrder) {
  SimClock clock;
  ControlLink link(&clock, {100, 0.0, 0.0, 1});
  const std::uint8_t a[] = {1};
  const std::uint8_t b[] = {2};
  link.send(a);
  clock.advance(10);
  link.send(b);
  clock.advance(200);
  const auto ready = link.receive_ready();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0][0], 1);
  EXPECT_EQ(ready[1][0], 2);
}

TEST(Link, LossDropsDatagramsDeterministically) {
  SimClock clock;
  ControlLink link(&clock, {0, 0.5, 0.0, 42});
  const std::uint8_t data[] = {7};
  for (int i = 0; i < 200; ++i) link.send(data);
  clock.advance(1);
  const auto ready = link.receive_ready();
  EXPECT_EQ(link.sent_count(), 200u);
  EXPECT_EQ(ready.size() + link.dropped_count(), 200u);
  EXPECT_NEAR(static_cast<double>(link.dropped_count()), 100.0, 30.0);
}

TEST(Link, CorruptionFlipsExactlyOneBit) {
  SimClock clock;
  ControlLink link(&clock, {0, 0.0, 1.0, 7});
  const std::vector<std::uint8_t> data{0x00, 0x00, 0x00, 0x00};
  link.send(data);
  clock.advance(1);
  const auto ready = link.receive_ready();
  ASSERT_EQ(ready.size(), 1u);
  int flipped_bits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    flipped_bits += __builtin_popcount(ready[0][i] ^ data[i]);
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(link.corrupted_count(), 1u);
}

// --- drivers -----------------------------------------------------------------------

TEST(ProgrammableDriver, ConfigAppliesAfterControlDelay) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(300), &clock);
  surface::SurfaceConfig config(panel.element_count());
  config.set_phase(0, 1.0);
  EXPECT_EQ(driver.write_config(0, config), DriverStatus::kOk);
  driver.poll();
  // Not yet applied: control delay has not elapsed.
  EXPECT_NEAR(driver.active_config().phase(0), 0.0, 1e-9);
  clock.advance(301);
  driver.poll();
  EXPECT_NEAR(driver.active_config().phase(0), 1.0, 1e-3);
  EXPECT_EQ(driver.frames_applied(), 1u);
}

TEST(ProgrammableDriver, SelectSwitchesSlots) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(10), &clock);
  surface::SurfaceConfig config(panel.element_count());
  config.set_phase(0, 2.0);
  driver.write_config(2, config);
  clock.advance(11);
  driver.poll();
  // Slot 2 stored but slot 0 still active.
  EXPECT_NEAR(driver.active_config().phase(0), 0.0, 1e-9);
  EXPECT_NEAR(driver.stored_config(2).phase(0), 2.0, 1e-3);
  driver.select_config(2);
  clock.advance(11);
  driver.poll();
  EXPECT_EQ(driver.active_slot(), 2);
  EXPECT_NEAR(driver.active_config().phase(0), 2.0, 1e-3);
}

TEST(ProgrammableDriver, RejectsBadSlotAndConfig) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(10, 2), &clock);
  EXPECT_EQ(driver.write_config(5, surface::SurfaceConfig(16)),
            DriverStatus::kBadSlot);
  EXPECT_EQ(driver.write_config(0, surface::SurfaceConfig(3)),
            DriverStatus::kBadConfig);
  EXPECT_EQ(driver.select_config(9), DriverStatus::kBadSlot);
}

TEST(ProgrammableDriver, AppliesGranularityProjection) {
  SimClock clock;
  const auto panel = test_panel(surface::ControlGranularity::kColumn);
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(10), &clock);
  surface::SurfaceConfig config(panel.element_count());
  // Different phases within one column must collapse to their circular mean.
  config.set_phase(0, 1.0);   // row 0, col 0
  config.set_phase(4, 1.4);   // row 1, col 0
  driver.write_config(0, config);
  clock.advance(11);
  driver.poll();
  EXPECT_NEAR(driver.active_config().phase(0), driver.active_config().phase(4),
              1e-3);
}

TEST(ProgrammableDriver, CorruptedFrameIsRejectedNotApplied) {
  SimClock clock;
  const auto panel = test_panel();
  ReliableOptions lossy;
  lossy.forward.corrupt_probability = 1.0;
  lossy.forward.seed = 3;
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(10), &clock, lossy);
  surface::SurfaceConfig config(panel.element_count());
  config.set_phase(0, 1.0);
  driver.write_config(0, config);
  clock.advance(11);
  driver.poll();
  // CRC catches the flip: config unchanged, frame counted as rejected.
  // (A flip in the CRC field itself is also a reject.)
  EXPECT_EQ(driver.frames_applied(), 0u);
  EXPECT_EQ(driver.frames_rejected(), 1u);
  EXPECT_NEAR(driver.active_config().phase(0), 0.0, 1e-9);
}

TEST(PassiveDriver, FabricateExactlyOnce) {
  const auto panel_storage = surface::SurfacePanel(
      "p", geom::Frame({0, 0, 0}, {0, 0, 1}), 4, 4,
      surface::ElementDesign{0.005, 0.0, 0, false, 0.5},
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kPassive,
      surface::ControlGranularity::kElement);
  PassiveSurfaceDriver driver("passive0", &panel_storage, test_spec());
  EXPECT_FALSE(driver.fabricated());
  surface::SurfaceConfig config(16);
  config.set_phase(3, 2.5);
  EXPECT_EQ(driver.fabricate(config), DriverStatus::kOk);
  EXPECT_TRUE(driver.fabricated());
  EXPECT_NEAR(driver.active_config().phase(3), 2.5, 1e-9);
  // Second attempt fails; config unchanged.
  surface::SurfaceConfig other(16);
  EXPECT_EQ(driver.fabricate(other), DriverStatus::kAlreadyFixed);
  EXPECT_EQ(driver.write_config(0, other), DriverStatus::kAlreadyFixed);
  EXPECT_NEAR(driver.active_config().phase(3), 2.5, 1e-9);
  // Spec reflects ROM-like behaviour.
  EXPECT_EQ(driver.spec().control_delay_us, kInfiniteDelay);
  EXPECT_EQ(driver.slot_count(), 1u);
  EXPECT_DOUBLE_EQ(driver.spec().power_mw, 0.0);
}

// --- registry ----------------------------------------------------------------------

TEST(Registry, AddFindRemove) {
  SimClock clock;
  const auto panel = test_panel();
  DeviceRegistry registry;
  registry.add_surface(std::make_unique<ProgrammableSurfaceDriver>(
      "s0", &panel, test_spec(), &clock));
  EXPECT_EQ(registry.surface_count(), 1u);
  EXPECT_NE(registry.find_surface("s0"), nullptr);
  EXPECT_EQ(registry.find_surface("nope"), nullptr);
  EXPECT_TRUE(registry.remove_surface("s0"));
  EXPECT_FALSE(registry.remove_surface("s0"));
  EXPECT_EQ(registry.surface_count(), 0u);
}

TEST(Registry, RejectsDuplicateIds) {
  SimClock clock;
  const auto panel = test_panel();
  DeviceRegistry registry;
  registry.add_surface(std::make_unique<ProgrammableSurfaceDriver>(
      "dup", &panel, test_spec(), &clock));
  EXPECT_THROW(registry.add_surface(std::make_unique<ProgrammableSurfaceDriver>(
                   "dup", &panel, test_spec(), &clock)),
               std::invalid_argument);
  EXPECT_THROW(registry.add_surface(nullptr), std::invalid_argument);
}

TEST(Registry, FiltersByBandAndClass) {
  SimClock clock;
  const auto panel = test_panel();
  DeviceRegistry registry;
  HardwareSpec spec28 = test_spec();
  registry.add_surface(std::make_unique<ProgrammableSurfaceDriver>(
      "mm", &panel, spec28, &clock));
  HardwareSpec spec24;
  spec24.band_response[em::Band::k2_4GHz] = 0.9;
  spec24.offband_blocking = 0.8;  // responds poorly off band
  registry.add_surface(
      std::make_unique<PassiveSurfaceDriver>("wifi", &panel, spec24));
  EXPECT_EQ(registry.surfaces_on_band(em::Band::k28GHz).size(), 1u);
  // Only the tuned surface can serve 2.4 GHz; the 28 GHz surface is merely
  // transparent there, which is not the same as being able to actuate.
  EXPECT_EQ(registry.surfaces_on_band(em::Band::k2_4GHz).size(), 1u);
  EXPECT_EQ(registry.surfaces_on_band(em::Band::k60GHz).size(), 0u);
  EXPECT_EQ(registry.programmable_surfaces().size(), 1u);
}

TEST(Registry, EndpointLifecycle) {
  DeviceRegistry registry;
  registry.add_endpoint({"laptop", EndpointKind::kClient, {1, 2, 3},
                         em::Band::k28GHz, std::nullopt});
  EXPECT_THROW(registry.add_endpoint({"laptop", EndpointKind::kClient, {},
                                      em::Band::k28GHz, std::nullopt}),
               std::invalid_argument);
  EXPECT_THROW(registry.add_endpoint({"", EndpointKind::kClient, {},
                                      em::Band::k28GHz, std::nullopt}),
               std::invalid_argument);
  ASSERT_NE(registry.find_endpoint("laptop"), nullptr);
  EXPECT_EQ(registry.find_endpoint("laptop")->position, geom::Vec3(1, 2, 3));
  EXPECT_TRUE(registry.remove_endpoint("laptop"));
  EXPECT_EQ(registry.find_endpoint("laptop"), nullptr);
}

TEST(Registry, BlockingHazardDetection) {
  // A 2.4 GHz surface that blocks most off-band energy is a hazard for an
  // adjacent-band network, but a 60 GHz network is too far away to care.
  SimClock clock;
  const auto panel = test_panel();
  DeviceRegistry registry;
  HardwareSpec wifi_spec;
  wifi_spec.band_response[em::Band::k2_4GHz] = 0.9;
  wifi_spec.offband_blocking = 0.6;
  registry.add_surface(
      std::make_unique<PassiveSurfaceDriver>("wifi-surface", &panel, wifi_spec));
  // 2.4 GHz adjacent bands: sub-1 GHz is within the 1.6x ratio? 2.4/0.9 = 2.7
  // -> no. Use a band close to 2.4: itself is "tuned", so check nothing is
  // flagged for its own band, and the sub-1 GHz network is safe.
  EXPECT_TRUE(registry.blocking_hazards(em::Band::k2_4GHz).empty());
  EXPECT_TRUE(registry.blocking_hazards(em::Band::k60GHz).empty());
}

// --- codebook -----------------------------------------------------------------------

TEST(Codebook, BuildsOneConfigPerTarget) {
  const auto panel = test_panel();
  const std::vector<geom::Vec3> targets{{1, 0, 1}, {0, 1, 1}, {-1, 0, 2}};
  const auto codebook = build_steering_codebook(panel, {0, 0, 3}, targets,
                                                28e9);
  ASSERT_EQ(codebook.size(), 3u);
  for (const auto& config : codebook) {
    EXPECT_EQ(config.size(), panel.element_count());
  }
  // Distinct targets produce distinct configurations.
  EXPECT_GT(codebook[0].max_phase_delta(codebook[1]), 0.1);
}

TEST(Codebook, LoadsIntoDriverSlots) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(10, 4), &clock);
  const std::vector<geom::Vec3> targets{{1, 0, 1}, {0, 1, 1}, {-1, 0, 2}};
  EXPECT_EQ(load_steering_codebook(driver, {0, 0, 3}, targets, 28e9), 3u);
  clock.advance(11);
  driver.poll();
  // Slots hold the distinct beams.
  EXPECT_GT(driver.stored_config(0).max_phase_delta(driver.stored_config(1)),
            0.05);
}

TEST(Codebook, TruncatesToSlotCapacity) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(10, 2), &clock);
  const std::vector<geom::Vec3> targets{{1, 0, 1}, {0, 1, 1}, {-1, 0, 2},
                                        {2, 2, 2}};
  EXPECT_EQ(load_steering_codebook(driver, {0, 0, 3}, targets, 28e9), 2u);
}

// --- feedback -----------------------------------------------------------------------

TEST(Feedback, SelectsBestSlot) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(1, 4), &clock);
  CodebookSelector selector(0.5);
  // Metric: slot 2 is best by far.
  const auto result = selector.sweep_and_select(driver, [](std::uint16_t slot) {
    return slot == 2 ? -40.0 : -70.0;
  });
  EXPECT_EQ(result.best_slot, 2);
  EXPECT_DOUBLE_EQ(result.best_metric, -40.0);
  clock.advance(2);
  driver.poll();
  EXPECT_EQ(driver.active_slot(), 2);
  EXPECT_EQ(selector.switches(), 1u);
}

TEST(Feedback, HysteresisPreventsFlapping) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(1, 2), &clock);
  CodebookSelector selector(1.0);
  // Slot 1 is only 0.4 dB better than the active slot 0: no switch.
  selector.sweep_and_select(driver, [](std::uint16_t slot) {
    return slot == 1 ? -50.0 : -50.4;
  });
  clock.advance(2);
  driver.poll();
  EXPECT_EQ(driver.active_slot(), 0);
  EXPECT_EQ(selector.switches(), 0u);
}

TEST(Feedback, PassiveSurfacesAreMeasuredNotSwitched) {
  const auto panel = test_panel();
  PassiveSurfaceDriver driver("p0", &panel, test_spec());
  CodebookSelector selector;
  const auto result =
      selector.sweep_and_select(driver, [](std::uint16_t) { return -55.0; });
  EXPECT_EQ(result.per_slot_metric.size(), 1u);
  EXPECT_EQ(selector.switches(), 0u);
}

TEST(Feedback, NullProbeRejected) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(), &clock);
  CodebookSelector selector;
  EXPECT_THROW(selector.sweep_and_select(driver, nullptr),
               std::invalid_argument);
}

// --- write-combining --------------------------------------------------------------

TEST(Batch, CombinerCoalescesDedupesAndElides) {
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver driver("s0", &panel, test_spec(10), &clock);

  surface::SurfaceConfig first(panel.element_count());
  first.set_phase(0, 1.0);
  surface::SurfaceConfig last(panel.element_count());
  last.set_phase(3, 2.0);
  last.set_phase(4, 2.5);

  WriteCombiner combiner;
  combiner.stage(driver, 0, first, /*activate=*/true);
  combiner.stage(driver, 0, last, /*activate=*/true);  // same key: combined
  const FlushStats stats = combiner.flush();
  EXPECT_EQ(stats.writes_staged, 2u);
  EXPECT_EQ(stats.writes_coalesced, 1u);
  EXPECT_EQ(stats.transactions, 1u);  // one transaction for the epoch
  EXPECT_EQ(stats.element_updates, 2u);
  EXPECT_EQ(stats.selects, 1u);
  EXPECT_EQ(stats.worst_delay_us, 10u);
  clock.advance(stats.worst_delay_us + 1);
  driver.poll();
  // The combined write is the *final* staged config, not the first.
  EXPECT_EQ(driver.stored_config(0).phase(0), 0.0);
  EXPECT_GT(driver.stored_config(0).phase(3), 0.0);

  // Restaging the applied state is a no-op epoch: diff empty, zero frames.
  combiner.stage(driver, 0, driver.stored_config(0), /*activate=*/false);
  const FlushStats again = combiner.flush();
  EXPECT_EQ(again.transactions, 0u);
  EXPECT_EQ(again.writes_elided, 1u);
}

TEST(Batch, FlushLeavesSameStateAsDirectWriteConfig) {
  // The header's equivalence contract: one batched flush leaves exactly the
  // stored config a plain write_config(target) would.
  SimClock clock;
  const auto panel = test_panel();
  ProgrammableSurfaceDriver batched("a", &panel, test_spec(10), &clock);
  ProgrammableSurfaceDriver direct("b", &panel, test_spec(10), &clock);

  surface::SurfaceConfig target(panel.element_count());
  for (std::size_t i = 0; i < 6; ++i) {
    target.set_phase(i, 0.5 + 0.1 * static_cast<double>(i));
  }

  WriteCombiner combiner;
  combiner.stage(batched, 0, target, true);
  const FlushStats stats = combiner.flush();
  EXPECT_EQ(stats.transactions, 1u);
  EXPECT_EQ(stats.element_updates, 6u);
  ASSERT_EQ(direct.write_config(0, target), DriverStatus::kOk);

  clock.advance(11);
  batched.poll();
  direct.poll();
  for (std::size_t i = 0; i < panel.element_count(); ++i) {
    EXPECT_EQ(batched.stored_config(0).phase(i),
              direct.stored_config(0).phase(i))
        << "element " << i;
    EXPECT_EQ(batched.stored_config(0).amplitude(i),
              direct.stored_config(0).amplitude(i));
  }
}

}  // namespace
}  // namespace surfos::hal

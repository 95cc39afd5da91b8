// Reliable control-channel tests: in-order exactly-once delivery over
// perfect, lossy, corrupting, and reordering-free links; retransmission
// behaviour; fire-and-forget (no retransmissions); and the programmable
// driver's writes and selects, and the write combiner's elision, against a
// hostile link.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "hal/batch.hpp"
#include "hal/driver.hpp"
#include "hal/link.hpp"
#include "util/rng.hpp"

namespace surfos::hal {
namespace {

Frame make_frame(std::uint16_t slot, std::uint8_t tag) {
  Frame frame;
  frame.type = MessageType::kSelectConfig;
  frame.slot = slot;
  frame.payload = {tag};
  return frame;
}

struct Collector {
  std::vector<std::uint16_t> slots;
  ReliableLink::DeliverFn fn() {
    return [this](const Frame& frame) { slots.push_back(frame.slot); };
  }
};

TEST(ReliableLink, DeliversInOrderOnCleanLink) {
  SimClock clock;
  ReliableOptions options;
  options.forward.latency_us = 100;
  ReliableLink link(&clock, options);
  Collector collector;
  link.set_receiver(collector.fn());
  for (std::uint16_t i = 0; i < 5; ++i) link.send(make_frame(i, 0));
  clock.advance(101);
  link.poll();
  ASSERT_EQ(collector.slots.size(), 5u);
  for (std::uint16_t i = 0; i < 5; ++i) EXPECT_EQ(collector.slots[i], i);
  EXPECT_EQ(link.retransmission_count(), 0u);
  // Acks complete the loop once the reverse latency elapses.
  clock.advance(101);
  link.poll();
  EXPECT_EQ(link.unacked_count(), 0u);
}

TEST(ReliableLink, RecoversFromHeavyLoss) {
  SimClock clock;
  ReliableOptions options;
  options.forward.latency_us = 100;
  options.forward.loss_probability = 0.5;
  options.forward.seed = 11;
  options.reverse.loss_probability = 0.3;
  options.rto_us = 500;
  ReliableLink link(&clock, options);
  Collector collector;
  link.set_receiver(collector.fn());
  for (std::uint16_t i = 0; i < 20; ++i) link.send(make_frame(i, 0));
  // Drive the clock until everything lands (bounded loop).
  for (int tick = 0; tick < 200 && collector.slots.size() < 20; ++tick) {
    clock.advance(250);
    link.poll();
  }
  ASSERT_EQ(collector.slots.size(), 20u);
  for (std::uint16_t i = 0; i < 20; ++i) EXPECT_EQ(collector.slots[i], i);
  EXPECT_GT(link.retransmission_count(), 0u);
  EXPECT_EQ(link.abandoned_count(), 0u);
}

TEST(ReliableLink, RecoversFromCorruption) {
  SimClock clock;
  ReliableOptions options;
  options.forward.latency_us = 100;
  options.forward.corrupt_probability = 0.4;
  options.forward.seed = 5;
  options.rto_us = 400;
  ReliableLink link(&clock, options);
  Collector collector;
  link.set_receiver(collector.fn());
  for (std::uint16_t i = 0; i < 10; ++i) link.send(make_frame(i, 0));
  for (int tick = 0; tick < 200 && collector.slots.size() < 10; ++tick) {
    clock.advance(200);
    link.poll();
  }
  ASSERT_EQ(collector.slots.size(), 10u);
}

TEST(ReliableLink, NoDuplicateDeliveryDespiteRetransmits) {
  SimClock clock;
  ReliableOptions options;
  options.forward.latency_us = 100;
  options.reverse.loss_probability = 1.0;  // acks never arrive
  options.rto_us = 300;
  options.max_retransmissions = 3;
  ReliableLink link(&clock, options);
  Collector collector;
  link.set_receiver(collector.fn());
  link.send(make_frame(7, 0));
  for (int tick = 0; tick < 20; ++tick) {
    clock.advance(300);
    link.poll();
  }
  // The frame was retransmitted repeatedly but delivered exactly once.
  ASSERT_EQ(collector.slots.size(), 1u);
  EXPECT_EQ(collector.slots[0], 7);
  EXPECT_GT(link.duplicate_count(), 0u);
  // Sender eventually gives up on the unackable frame.
  EXPECT_EQ(link.abandoned_count(), 1u);
  EXPECT_EQ(link.unacked_count(), 0u);
}

TEST(ReliableLink, AbandonsAfterMaxRetries) {
  SimClock clock;
  ReliableOptions options;
  options.forward.loss_probability = 1.0;  // black hole
  options.rto_us = 100;
  options.max_retransmissions = 4;
  ReliableLink link(&clock, options);
  link.send(make_frame(1, 0));
  for (int tick = 0; tick < 20; ++tick) {
    clock.advance(100);
    link.poll();
  }
  EXPECT_EQ(link.delivered_count(), 0u);
  EXPECT_EQ(link.abandoned_count(), 1u);
  EXPECT_LE(link.retransmission_count(), 4u);
}

TEST(ReliableLink, FireAndForgetSkipsLostFrames) {
  // max_retransmissions = 0: nothing is resent, so a lost frame leaves a gap
  // that is never filled, and the receiver delivers what arrives after it.
  SimClock clock;
  ReliableOptions options;
  options.forward.latency_us = 100;
  options.forward.loss_probability = 0.5;
  options.forward.seed = 9;  // drops the first frame
  options.max_retransmissions = 0;
  ReliableLink link(&clock, options);
  Collector collector;
  link.set_receiver(collector.fn());
  for (std::uint16_t i = 0; i < 20; ++i) link.send(make_frame(i, 0));
  clock.advance(101);
  link.poll();
  ASSERT_FALSE(collector.slots.empty());
  EXPECT_NE(collector.slots.front(), 0) << "first frame not lost";
  EXPECT_LT(collector.slots.size(), 20u);
  for (std::size_t i = 1; i < collector.slots.size(); ++i) {
    EXPECT_LT(collector.slots[i - 1], collector.slots[i]);
  }
  // Nothing is retransmitted, and nothing is left waiting.
  for (int tick = 0; tick < 10; ++tick) {
    clock.advance(options.rto_us);
    link.poll();
  }
  EXPECT_EQ(link.retransmission_count(), 0u);
  EXPECT_EQ(link.unacked_count(), 0u);
  EXPECT_EQ(link.delivered_count(), collector.slots.size());
}

TEST(ReliableLink, AbandonedFrameDoesNotStallLaterFrames) {
  // The sender gives up on a frame after max_retransmissions; the frames
  // behind it must not wait for it forever.
  SimClock clock;
  ReliableOptions options;
  options.forward.loss_probability = 0.5;
  options.forward.seed = 1;
  options.rto_us = 300;
  options.max_retransmissions = 1;
  ReliableLink link(&clock, options);
  std::vector<std::uint32_t> seqs;
  link.set_receiver([&](const Frame& f) { seqs.push_back(f.sequence); });
  auto poll_for = [&](Micros span_us) {
    for (Micros t = 0; t < span_us; t += 100) {
      clock.advance(100);
      link.poll();
    }
  };
  for (std::uint16_t i = 0; i < 10; ++i) link.send(make_frame(i, 0));
  poll_for(3000);
  ASSERT_GT(link.abandoned_count(), 0u) << "seed 1 no longer loses a frame";
  const std::size_t before = seqs.size();
  for (std::uint16_t i = 10; i < 15; ++i) link.send(make_frame(i, 0));
  poll_for(3000);

  // Frames 7, 8 (of the first ten) and 11, 12 lose every copy.
  const std::vector<std::uint32_t> expected{1, 2, 3, 4, 5, 6, 9, 10, 13, 14, 15};
  EXPECT_EQ(seqs, expected);
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_LT(seqs[i - 1], seqs[i]);
  EXPECT_EQ(link.delivered_count(), seqs.size());
  EXPECT_GT(seqs.size(), before) << "frames sent after the abandon stalled";
  EXPECT_TRUE(link.all_delivered());
}

TEST(ReliableLink, SkipsOnlyGapsNoCopyCanFill) {
  // With the ack path cut, the sender's schedule does not depend on the
  // receiver, so a mirror ControlLink with the same seed replays which
  // frames have a surviving copy. Polls come at random intervals (some
  // closer than the RTO, some many RTOs apart): every frame with a
  // surviving copy must be delivered, exactly once and in order, so only
  // gaps no copy can fill are skipped.
  for (const std::size_t max_retransmissions : {1u, 2u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SimClock clock;
      ReliableOptions options;
      options.forward.loss_probability = 0.6;
      options.forward.seed = seed;
      options.reverse.loss_probability = 1.0;
      options.rto_us = 300;
      options.max_retransmissions = max_retransmissions;
      ReliableLink link(&clock, options);
      std::vector<std::uint32_t> seqs;
      link.set_receiver([&](const Frame& f) { seqs.push_back(f.sequence); });

      ControlLink mirror(&clock, options.forward);
      struct Copy {
        Micros last_sent;
        std::size_t attempts;
      };
      std::map<std::uint32_t, Copy> unacked;
      std::vector<std::uint32_t> reached;
      auto transmit = [&](std::uint32_t seq) {
        const std::size_t dropped = mirror.dropped_count();
        const std::uint8_t byte = 0;
        mirror.send(std::span<const std::uint8_t>(&byte, 1));
        if (mirror.dropped_count() == dropped) reached.push_back(seq);
      };
      auto advance_and_poll = [&](Micros step) {
        clock.advance(step);
        link.poll();
        for (auto it = unacked.begin(); it != unacked.end();) {
          if (clock.now() - it->second.last_sent >= options.rto_us) {
            if (it->second.attempts > options.max_retransmissions) {
              it = unacked.erase(it);
              continue;
            }
            transmit(it->first);
            it->second.last_sent = clock.now();
            ++it->second.attempts;
          }
          ++it;
        }
      };
      util::Rng cadence(seed + 100);
      std::uint32_t next_seq = 1;
      for (int round = 0; round < 10; ++round) {
        for (int k = 0; k < 3; ++k) {
          link.send(make_frame(0, 0));
          transmit(next_seq);
          unacked[next_seq++] = Copy{clock.now(), 1};
        }
        for (int k = 0; k < 8; ++k) advance_and_poll(20 + cadence.below(1000));
      }
      for (int k = 0; k < 20; ++k) advance_and_poll(options.rto_us);
      std::sort(reached.begin(), reached.end());
      reached.erase(std::unique(reached.begin(), reached.end()), reached.end());
      const std::string where = "seed " + std::to_string(seed) + ", max " +
                                std::to_string(max_retransmissions);
      ASSERT_LT(reached.size(), next_seq - 1) << where << ": no gap";
      EXPECT_EQ(seqs, reached) << where;
      EXPECT_EQ(link.unacked_count(), 0u) << where;
    }
  }
}

// --- ProgrammableSurfaceDriver over a lossy link ------------------------------

surface::SurfacePanel reliable_test_panel() {
  surface::ElementDesign d;
  d.spacing_m = 0.005;
  return surface::SurfacePanel("panel", geom::Frame({0, 0, 0}, {0, 0, 1}), 4,
                               4, d, surface::OperationMode::kReflective,
                               surface::Reconfigurability::kProgrammable,
                               surface::ControlGranularity::kElement);
}

TEST(ReliableDriver, ConfigSurvivesLossyControlPath) {
  SimClock clock;
  const auto panel = reliable_test_panel();
  HardwareSpec spec;
  spec.control_delay_us = 200;
  spec.config_slots = 4;
  ReliableOptions options;
  options.forward.loss_probability = 0.6;
  options.forward.seed = 21;
  options.rto_us = 600;
  ProgrammableSurfaceDriver driver("s0", &panel, spec, &clock, options);

  surface::SurfaceConfig config(panel.element_count());
  config.set_phase(3, 1.5);
  EXPECT_EQ(driver.write_config(2, config), DriverStatus::kOk);
  EXPECT_EQ(driver.select_config(2), DriverStatus::kOk);
  for (int tick = 0; tick < 100 && driver.active_slot() != 2; ++tick) {
    clock.advance(300);
    driver.poll();
  }
  EXPECT_EQ(driver.active_slot(), 2);
  EXPECT_NEAR(driver.active_config().phase(3), 1.5, 1e-3);
  EXPECT_GT(driver.link().retransmission_count(), 0u);
}

TEST(ReliableDriver, WriteThenSelectStayOrdered) {
  // Even under loss, select_config never activates a slot before the
  // write_config that precedes it in program order (cumulative in-order
  // delivery guarantees this).
  SimClock clock;
  const auto panel = reliable_test_panel();
  HardwareSpec spec;
  spec.control_delay_us = 100;
  spec.config_slots = 2;
  ReliableOptions options;
  options.forward.loss_probability = 0.5;
  options.forward.seed = 33;
  options.rto_us = 400;
  ProgrammableSurfaceDriver driver("s0", &panel, spec, &clock, options);

  surface::SurfaceConfig config(panel.element_count());
  config.set_phase(0, 2.0);
  driver.write_config(1, config);
  driver.select_config(1);
  bool saw_inconsistent_state = false;
  for (int tick = 0; tick < 100; ++tick) {
    clock.advance(200);
    driver.poll();
    if (driver.active_slot() == 1 &&
        std::fabs(driver.active_config().phase(0) - 2.0) > 1e-3) {
      saw_inconsistent_state = true;
    }
    if (driver.active_slot() == 1) break;
  }
  EXPECT_EQ(driver.active_slot(), 1);
  EXPECT_FALSE(saw_inconsistent_state);
}

TEST(ReliableDriver, RejectsBadSlotAndConfigLocally) {
  SimClock clock;
  const auto panel = reliable_test_panel();
  HardwareSpec spec;
  spec.config_slots = 2;
  ProgrammableSurfaceDriver driver("s0", &panel, spec, &clock);
  EXPECT_EQ(driver.write_config(9, surface::SurfaceConfig(16)),
            DriverStatus::kBadSlot);
  EXPECT_EQ(driver.write_config(0, surface::SurfaceConfig(2)),
            DriverStatus::kBadConfig);
  EXPECT_EQ(driver.select_config(9), DriverStatus::kBadSlot);
}

TEST(ReliableDriver, PatchBehindALostWriteFallsBackToAFullWrite) {
  // A config staged while an earlier write to the slot is still being
  // retransmitted goes out whole, and lands after the lost write.
  SimClock clock;
  const auto panel = reliable_test_panel();
  HardwareSpec spec;
  spec.control_delay_us = 200;
  spec.config_slots = 2;
  ReliableOptions options;
  options.forward.loss_probability = 0.5;
  options.forward.seed = 9;  // drops the first frame
  options.rto_us = 600;
  ProgrammableSurfaceDriver driver("s0", &panel, spec, &clock, options);

  surface::SurfaceConfig everywhere(panel.element_count());
  for (std::size_t i = 0; i < everywhere.size(); ++i) {
    everywhere.set_phase(i, 1.0);
  }
  surface::SurfaceConfig one_element(panel.element_count());
  one_element.set_phase(0, 2.0);  // one element away from the stored slot

  WriteCombiner combiner;
  combiner.stage(driver, 1, everywhere, false);
  ASSERT_EQ(combiner.flush().transactions, 1u);
  clock.advance(201);
  driver.poll();
  ASSERT_EQ(driver.link().delivered_count(), 0u) << "first write not lost";
  combiner.stage(driver, 1, one_element, false);
  ASSERT_EQ(combiner.flush().transactions, 1u);
  for (int tick = 0; tick < 100 && driver.link().unacked_count() > 0; ++tick) {
    clock.advance(300);
    driver.poll();
  }
  ASSERT_EQ(driver.link().unacked_count(), 0u);
  for (std::size_t i = 0; i < panel.element_count(); ++i) {
    EXPECT_NEAR(driver.stored_config(1).phase(i), one_element.phase(i), 1e-3)
        << i;
  }
}

TEST(ReliableDriver, ElisionWaitsForALostWrite) {
  // Restaging a slot's stored config elides the write only when nothing is
  // in flight: behind a lost write the stored slot is stale, and the late
  // write would overwrite the config the combiner skipped.
  SimClock clock;
  const auto panel = reliable_test_panel();
  HardwareSpec spec;
  spec.control_delay_us = 200;
  spec.config_slots = 2;
  ReliableOptions options;
  options.forward.loss_probability = 0.5;
  options.forward.seed = 9;  // drops the first frame
  options.rto_us = 600;
  ProgrammableSurfaceDriver driver("s0", &panel, spec, &clock, options);

  const surface::SurfaceConfig original = driver.stored_config(1);
  surface::SurfaceConfig everywhere(panel.element_count());
  for (std::size_t i = 0; i < everywhere.size(); ++i) {
    everywhere.set_phase(i, 1.0);
  }

  WriteCombiner combiner;
  combiner.stage(driver, 1, everywhere, false);
  ASSERT_EQ(combiner.flush().transactions, 1u);
  clock.advance(201);
  driver.poll();
  ASSERT_EQ(driver.link().delivered_count(), 0u) << "first write not lost";
  ASSERT_TRUE(driver.has_frames_in_flight());

  combiner.stage(driver, 1, original, false);
  const FlushStats behind = combiner.flush();
  EXPECT_EQ(behind.transactions, 1u);
  EXPECT_EQ(behind.writes_elided, 0u);
  for (int tick = 0; tick < 100 && driver.link().unacked_count() > 0; ++tick) {
    clock.advance(300);
    driver.poll();
  }
  ASSERT_EQ(driver.link().unacked_count(), 0u);
  for (std::size_t i = 0; i < panel.element_count(); ++i) {
    EXPECT_NEAR(driver.stored_config(1).phase(i), original.phase(i), 1e-3)
        << i;
  }

  // Once everything sent has landed, the same restage is elided.
  EXPECT_FALSE(driver.has_frames_in_flight());
  combiner.stage(driver, 1, original, false);
  const FlushStats landed = combiner.flush();
  EXPECT_EQ(landed.transactions, 0u);
  EXPECT_EQ(landed.writes_elided, 1u);
}

}  // namespace
}  // namespace surfos::hal

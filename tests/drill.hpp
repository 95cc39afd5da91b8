// The determinism drill: an 8-site in-process surfosd run whose outputs are
// hashed epoch by epoch, so a change that moves any bit of a FleetReport or
// of a pushed event is seen.
//
// One run drives a hand-stepped daemon (ticker off) for 40 epochs. Every
// broker::AppClass, sensing included, is submitted through handle_request;
// apps are stopped, resumed and replaced while the daemon's walker moves
// through each site. Four subscriptions share one fake fd: metrics at
// interval 1, metrics at interval 3 under a name prefix, traces and health.
// After epoch 20 the daemon writes a snapshot; a second daemon restores it
// and replays epochs 21..40 of the same script. The restored daemon serves
// the snapshot's FleetReport until its first epoch, so its "cut-report" line
// at epoch 20 equals the uncut "report" line. After that its stream is its
// own: a snapshot carries sessions, not the orchestrator's task ids, kept
// plans or stored slots, so the first epoch after a restore re-optimizes
// every plan and reports the re-created tasks under new ids.
//
// Each epoch contributes one line per stream: `<epoch> <stream> <digest>`.
// Wall-clock fields are zeroed first (strip_wall_clock), and counters whose
// value follows thread scheduling are left out, so the lines are the same at
// any pool size and on every SIMD backend. tests/test_drill.cpp compares
// them with tests/golden/drill.txt; `surfos_drill --write <file>`
// regenerates that file.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "daemon/messages.hpp"

namespace surfos::drill {

/// Zeroes the fields that hold wall time: the StepTrace `*_us` timings of the
/// fleet and of every site, the event's `epoch_ms`/`flush_us`, and each
/// trace record's timestamp and duration.
void strip_wall_clock(FleetReport& report);
void strip_wall_clock(daemon::Event& event);

/// Runs the drill with the global pool at `threads` and returns its digest
/// lines. Resets the metrics registry and clears the precompute store first,
/// so a run does not see what an earlier one left in the process, and runs
/// under the knob registry's defaults whatever the environment sets.
std::vector<std::string> run(std::size_t threads);

/// The golden file's text: a comment header, then `lines`.
std::string golden_text(const std::vector<std::string>& lines);

/// The digest lines of a golden file's text (comments dropped).
std::vector<std::string> parse_golden(const std::string& text);

}  // namespace surfos::drill

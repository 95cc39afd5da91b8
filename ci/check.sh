#!/usr/bin/env bash
# The repo's one-command health check, in CI order:
#
#   0. knobs: the only getenv("SURFOS_...")/env_size("SURFOS_...") under
#      src/ is SURFOS_SIMD (every other knob is a core::kKnobRegistry row,
#      read through core::knob); every registry knob has a row in README's
#      and DESIGN.md's knob tables, and every SURFOS_* row there is a
#      registry knob or SURFOS_SIMD. wire: tools/ names no TlvReader and no
#      tlv_* parser, so the CLI tools decode surfosd's payloads only through
#      the message codecs (src/daemon/messages.hpp). planes: the channel
#      boundary headers (src/sim/channel.hpp, src/orch/perf.hpp,
#      src/orch/variables.hpp, src/surface/panel.hpp) name no CVec or CMat,
#      so coefficients and channel vectors cross it only as em::CxPlanes.
#      telemetry: src/, tools/, bench/, tests/ and examples/ name no
#      telemetry::enabled(, set_enabled(, SURFOS_SPAN( or telemetry::Span,
#      so the metrics registry stays always on and TraceSpan stays the one
#      span type. deleted: src/, tools/, bench/, tests/ and examples/ name no
#      Timeseries, timeseries.hpp, delta_since, MetricsDelta, CsvWriter or
#      precompute_stats, so a metrics subscription's delta anchor stays the
#      snapshot it was last sent (no epoch ring) and the deleted CSV writer
#      and fleet precompute shim stay gone
#   1. tier-1: configure + build + full ctest in ./build
#   2. focused re-runs of the observability suites (ctest -L telemetry,
#      ctest -L trace), the fleet control-plane suite (ctest -L fleet), the
#      precompute-store suite (ctest -L precompute), the
#      daemon/wire-protocol suite (ctest -L daemon) and the orchestrator
#      suite with its plan-reuse contracts (ctest -L orch) so a regression
#      there is named, not buried
#   3. forced-scalar re-run of the full suite (SURFOS_SIMD=scalar): the
#      scalar SIMD backend is the bit-exact reference, so every test must
#      pass with vectorization disabled
#   4. TSan build of the thread-pool/tracing/fleet/daemon/precompute/
#      orchestrator tests (ctest -L "tsan|trace|fleet|daemon|precompute|orch"
#      in ./build-tsan); any sanitizer report fails the run
#   4b. ASan+LSan build of every test target and every example (./build-asan)
#      and a plain ctest over the whole suite; any memory error or leak
#      fails the run
#   5. UBSan build of the SIMD, geometry, EM and sim tests (ctest -L
#      "simd|geom" in ./build-ubsan); undefined behavior in the lane
#      kernels, the BVH or the channel precompute fails the run
#   6. daemon smoke: spawn the real surfosd binary (SURFOS_TRACE=1) on a
#      temp socket, drive 50 surfos-ctl requests through it, require
#      `set-knob SURFOS_THREADS 2` to exit 1 with invalid-argument (a
#      construction-time row) and `set-knob SURFOS_PUMP_MAX 4x` to exit 2
#      (not a number), require `surfos-ctl knobs` to print a number on the
#      SURFOS_TRACE and SURFOS_ADMIT_QUEUE rows, receive three health events
#      and one traces event from `surfos-ctl watch`, stream >= 20 epochs of
#      kEvent frames into a `surfos-ctl watch metrics` subscriber and kill it
#      mid-stream (the daemon must keep serving), render three surfos-top
#      frames, SIGTERM it, and check for a clean exit, a written snapshot,
#      and zero leaked fds while serving
#
#   $ ci/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"

echo "== knobs: one registry, README.md and DESIGN.md rows match it"
REGISTRY_KNOBS="$(sed -n '/kKnobRegistry\[\] = {/,/^};/p' src/core/config.hpp |
  grep -oE '\{"SURFOS_[A-Z0-9_]+"' | grep -oE 'SURFOS_[A-Z0-9_]+' | sort -u)"
ENV_KNOBS="$(grep -rhoE '(getenv|env_size)\("SURFOS_[A-Z0-9_]+"' src |
  grep -oE 'SURFOS_[A-Z0-9_]+' | sort -u)"
STRAY_READS="$(echo "$ENV_KNOBS" | grep -vx 'SURFOS_SIMD' || true)"
[ -z "$STRAY_READS" ] || {
  echo "src/ reads knobs outside core::knob:" $STRAY_READS; exit 1; }
KNOWN_KNOBS="$(printf '%s\n%s\n' "$REGISTRY_KNOBS" "$ENV_KNOBS" | sort -u)"
for doc in README.md DESIGN.md; do
  ROWS="$(grep -oE '^\| `SURFOS_[A-Z0-9_]+`' "$doc" |
    grep -oE 'SURFOS_[A-Z0-9_]+' | sort -u)"
  MISSING="$(comm -23 <(echo "$REGISTRY_KNOBS") <(echo "$ROWS"))"
  STRAY="$(comm -13 <(echo "$KNOWN_KNOBS") <(echo "$ROWS"))"
  [ -z "$MISSING" ] || { echo "$doc knob table lacks:" $MISSING; exit 1; }
  [ -z "$STRAY" ] || { echo "$doc knob table names unknown knobs:" $STRAY; exit 1; }
done

echo
echo "== wire: tools/ decode only through the message codecs"
if grep -rnE 'TlvReader|tlv_[a-z0-9]+' tools; then
  echo "tools/ parses TLV by hand; decode through src/daemon/messages.hpp"
  exit 1
fi

echo
echo "== planes: the channel boundary speaks only em::CxPlanes"
if grep -nwE 'CVec|CMat' src/sim/channel.hpp src/orch/perf.hpp \
    src/orch/variables.hpp src/surface/panel.hpp; then
  echo "a channel-boundary header names CVec/CMat; pass em::CxPlanes"
  exit 1
fi

echo
echo "== telemetry: always on, one span type"
if grep -rnE 'telemetry::enabled\(|set_enabled\(|SURFOS_SPAN\(|telemetry::Span\b' \
    src tools bench tests examples; then
  echo "telemetry has no off switch and one span type: use SURFOS_TRACE_SPAN"
  exit 1
fi

echo
echo "== deleted: no metrics ring, CSV writer or fleet precompute shim"
if grep -rnE 'Timeseries|timeseries\.hpp|delta_since|MetricsDelta|CsvWriter|precompute_stats' \
    src tools bench tests examples; then
  echo "a deleted name is back: metrics subscriptions diff against their anchor"
  echo "snapshot, and PrecomputeStore::instance().stats() is the store's stats"
  exit 1
fi

echo
echo "== tier 1: build + full test suite (build/)"
cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo
echo "== focused: telemetry + trace + fleet + daemon + precompute + orch labels"
ctest --test-dir build --output-on-failure -L telemetry
ctest --test-dir build --output-on-failure -L trace
ctest --test-dir build --output-on-failure -L fleet
ctest --test-dir build --output-on-failure -L daemon
ctest --test-dir build --output-on-failure -L precompute
ctest --test-dir build --output-on-failure -L orch

echo
echo "== forced scalar: full suite with SURFOS_SIMD=scalar (vector dispatch off)"
SURFOS_SIMD=scalar ctest --test-dir build --output-on-failure -j"$JOBS"


echo
echo "== tsan: thread-pool / tracing / daemon / orch tests under ThreadSanitizer (build-tsan/)"
cmake -B build-tsan -S . -DSURFOS_SANITIZE=thread
cmake --build build-tsan -j"$JOBS" --target \
  test_thread_pool test_parallel_determinism test_trace \
  test_precompute test_fleet test_admission test_proto test_daemon \
  test_streaming test_orch
# TSan findings abort the test process (halt_on_error) so a data race can
# never hide behind a green assertion run. -L is a regex: the trace suite
# hammers the recorder from pool workers, the fleet suite steps sites
# concurrently on the pool, the daemon suite runs the ticker and
# poll() server threads against client connections, and the precompute
# suite exercises the mutex-guarded global artifact store from pool
# workers, and the orch suite runs the joint objective, whose leased
# scratch buffers are filled by per-RX pool workers and shared by
# concurrent value_batch callers, so all of them run under TSan too.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  ctest --test-dir build-tsan --output-on-failure \
  -L "tsan|trace|fleet|daemon|precompute|orch"

echo
echo "== asan: the whole suite under ASan+LSan (build-asan/)"
cmake -B build-asan -S . -DSURFOS_SANITIZE=address
# Every surfos_test and surfos_example target (the examples are ctest smoke
# tests too), read from the CMake files so a new test cannot be left out.
ASAN_TARGETS="$(grep -ohE '^surfos_(test|example)\([a-z_]+' \
  tests/CMakeLists.txt examples/CMakeLists.txt | cut -d'(' -f2)"
# shellcheck disable=SC2086
cmake --build build-asan -j"$JOBS" --target $ASAN_TARGETS
# halt_on_error makes the first invalid access fail its test; detect_leaks
# runs LeakSanitizer at exit, so a leaked snapshot buffer, client connection
# or precompute artifact fails the run too.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  ctest --test-dir build-asan --output-on-failure -j"$JOBS"

echo
echo "== ubsan: SIMD kernels, geometry, EM and channel suites under UBSan (build-ubsan/)"
cmake -B build-ubsan -S . -DSURFOS_SANITIZE=undefined
cmake --build build-ubsan -j"$JOBS" --target test_simd test_geom test_em test_sim
# halt_on_error turns any UB report into a test failure instead of a log
# line; the simd suite runs every available backend against the scalar
# reference, so lane-kernel UB (misaligned loads, bad masks) surfaces here.
# Label geom is test_geom (BVH build and refit, triangle and slab tests),
# test_em and test_sim (ray tracer, environment, channel precompute).
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir build-ubsan --output-on-failure -L "simd|geom"

echo
echo "== daemon smoke: live surfosd + 50 surfos-ctl requests + SIGTERM snapshot"
cmake --build build -j"$JOBS" --target surfosd surfos-ctl surfos-status surfos-top
SMOKE_SOCK="$(mktemp -u /tmp/surfosd_ci_XXXXXX.sock)"
SMOKE_SNAP="$(mktemp -u /tmp/surfosd_ci_XXXXXX.snap)"
WATCH_LOG="$(mktemp /tmp/surfosd_ci_watch_XXXXXX.log)"
SURFOS_TRACE=1 ./build/tools/surfosd --socket "$SMOKE_SOCK" \
  --snapshot "$SMOKE_SNAP" --epoch-ms 5 &
SMOKE_PID=$!
trap 'kill -9 $SMOKE_PID 2>/dev/null || true; rm -f "$SMOKE_SOCK" "$SMOKE_SNAP" "$WATCH_LOG"' EXIT
for _ in $(seq 1 50); do
  [ -S "$SMOKE_SOCK" ] && break
  sleep 0.1
done
[ -S "$SMOKE_SOCK" ] || { echo "surfosd never bound its socket"; exit 1; }
CTL=(./build/tools/surfos-ctl --socket "$SMOKE_SOCK")
"${CTL[@]}" ping
sleep 0.3  # let the server reap the ping connection before sampling fds
FDS_BEFORE=$(ls /proc/$SMOKE_PID/fd | wc -l)
"${CTL[@]}" submit vr --class vr-gaming --endpoint headset --throughput 40
"${CTL[@]}" submit cam --class smart-home --endpoint cam0
for i in $(seq 1 20); do "${CTL[@]}" status > /dev/null; done
for i in $(seq 1 20); do "${CTL[@]}" metrics > /dev/null; done
"${CTL[@]}" set-knob SURFOS_PUMP_MAX 4
# A construction-time row is refused (exit 1, invalid-argument); a value
# that is not a plain base-10 u64 is a usage error (exit 2).
KNOB_RC=0
KNOB_OUT="$("${CTL[@]}" set-knob SURFOS_THREADS 2 2>&1)" || KNOB_RC=$?
if [ "$KNOB_RC" -ne 1 ] || ! echo "$KNOB_OUT" | grep -q "invalid-argument"; then
  echo "set-knob SURFOS_THREADS 2: exit $KNOB_RC, '$KNOB_OUT'"; exit 1
fi
KNOB_RC=0
"${CTL[@]}" set-knob SURFOS_PUMP_MAX 4x 2>/dev/null || KNOB_RC=$?
[ "$KNOB_RC" -eq 2 ] || { echo "set-knob SURFOS_PUMP_MAX 4x: exit $KNOB_RC"; exit 1; }
KNOBS_OUT="$("${CTL[@]}" knobs)"
for knob in SURFOS_TRACE SURFOS_ADMIT_QUEUE; do
  echo "$KNOBS_OUT" | grep -qE "^$knob +[0-9]+ " ||
    { echo "surfos-ctl knobs printed no value for $knob"; exit 1; }
done
"${CTL[@]}" stop cam
"${CTL[@]}" resume cam
"${CTL[@]}" snapshot
"${CTL[@]}" traces > /dev/null
./build/tools/surfos-status --socket "$SMOKE_SOCK"
# Every topic's events decode: three health events, and one traces event
# from the flight recorder SURFOS_TRACE=1 turned on.
[ "$(timeout 20 "${CTL[@]}" watch health --count 3 2>/dev/null |
  grep -c '^event topic=health')" -eq 3 ] ||
  { echo "watch health did not print three events"; exit 1; }
timeout 20 "${CTL[@]}" watch traces --count 1 2>/dev/null |
  grep -q '^  trace ' || { echo "watch traces printed no trace record"; exit 1; }
# Live streaming: a watch subscriber rides the 5 ms ticker for >= 20 epochs
# of kEvent frames, then dies mid-stream (SIGKILL: no unsubscribe, no
# orderly close). The daemon must drop the connection and keep serving.
"${CTL[@]}" watch metrics > "$WATCH_LOG" 2>/dev/null &
WATCH_PID=$!
for _ in $(seq 1 50); do
  [ "$(grep -c '^event topic=metrics' "$WATCH_LOG")" -ge 20 ] && break
  sleep 0.1
done
kill -9 $WATCH_PID 2>/dev/null || true
wait $WATCH_PID 2>/dev/null || true
WATCH_EVENTS=$(grep -c '^event topic=metrics' "$WATCH_LOG")
if [ "$WATCH_EVENTS" -lt 20 ]; then
  echo "watch subscriber saw only $WATCH_EVENTS metrics events"; exit 1
fi
"${CTL[@]}" ping  # still serving after the mid-stream kill
# And the dashboard renders: three frames over the same stream, then exits.
./build/tools/surfos-top --socket "$SMOKE_SOCK" --frames 3 > /dev/null
# Every connection above has been closed: the serving daemon must be back
# to its baseline fd table (no leaked client fds).
sleep 0.3
FDS_AFTER=$(ls /proc/$SMOKE_PID/fd | wc -l)
if [ "$FDS_AFTER" -ne "$FDS_BEFORE" ]; then
  echo "fd leak: $FDS_BEFORE fds before, $FDS_AFTER after"; exit 1
fi
kill -TERM $SMOKE_PID
wait $SMOKE_PID
trap - EXIT
[ -s "$SMOKE_SNAP" ] || { echo "SIGTERM did not write a snapshot"; exit 1; }
# Restart from the snapshot: the resumed daemon must serve the same session.
./build/tools/surfosd --socket "$SMOKE_SOCK" --snapshot "$SMOKE_SNAP" --restore &
SMOKE_PID=$!
trap 'kill -9 $SMOKE_PID 2>/dev/null || true; rm -f "$SMOKE_SOCK" "$SMOKE_SNAP"' EXIT
for _ in $(seq 1 50); do
  [ -S "$SMOKE_SOCK" ] && break
  sleep 0.1
done
"${CTL[@]}" status | grep -q "^vr " || { echo "restore lost the vr session"; exit 1; }
"${CTL[@]}" shutdown
wait $SMOKE_PID
trap - EXIT
rm -f "$SMOKE_SOCK" "$SMOKE_SNAP"

echo
echo "ci/check.sh: all green"

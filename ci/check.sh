#!/usr/bin/env bash
# The repo's one-command health check, in CI order:
#
#   0. knobs: the only getenv("SURFOS_...")/env_size("SURFOS_...") under
#      src/ is SURFOS_SIMD (every other knob is a core::kKnobRegistry row,
#      read through core::knob); every registry knob has a row in README's
#      and DESIGN.md's knob tables, and every SURFOS_* row there is a
#      registry knob or SURFOS_SIMD. wire: tools/ names no TlvReader and no
#      tlv_* parser, so the CLI tools decode surfosd's payloads only through
#      the message codecs (src/daemon/messages.hpp). planes: no file under
#      src/ names CVec or CMat, so every complex vector and matrix, at the
#      channel boundary and in the sensing services alike, is an
#      em::CxPlanes / em::CxPlaneMat (em/cx.hpp holds only Cx and expj).
#      telemetry: src/, tools/, bench/, tests/ and examples/ name no
#      telemetry::enabled(, set_enabled(, SURFOS_SPAN( or telemetry::Span,
#      so the metrics registry stays always on and TraceSpan stays the one
#      span type. deleted: src/, tools/, bench/, tests/ and examples/ name no
#      Timeseries, timeseries.hpp, delta_since, MetricsDelta, CsvWriter,
#      precompute_stats, ReliableSurfaceDriver, hal/reliable.hpp,
#      SURFOS_SLO_RETRY_PCT, kSloRetryPct, arq_retry_total, CVec, CMat,
#      to_cvec, write_elements, kWriteElements, ElementUpdate,
#      encode_element_updates/decode_element_updates, kQueryStatus, kNack,
#      accumulate_power_gradient, util.pool.dispatches,
#      util.pool.nested_inline, plane_clip, fresnel_reflect, PlaneRect,
#      images_of, clip_sequence, load_rx_block, trace_block, make_pos_planes
#      or PosPlanes, so a metrics subscription's delta anchor
#      stays the snapshot it was last sent (no epoch ring), the deleted CSV
#      writer and fleet precompute shim stay gone, ProgrammableSurfaceDriver over ReliableLink stays the
#      one programmable driver, the watchdog has no ARQ-retry signal, planes
#      are the one complex currency with no conversion pair, a surface is
#      written whole configs only (kWriteConfig, kSelectConfig, kAck), a
#      link term's gradient runs on its LinkFold through one SIMD kernel,
#      a nested parallel loop runs inline without touching the pool, and
#      the batch tracer keeps one layout: compacted (sequence, receiver)
#      lanes with per-lane clip and Fresnel kernels
#   1. tier-1: configure + build + full ctest in ./build
#   1b. figures: the stdout of bench_fig2_conflict, bench_fig5_multitask,
#      bench_abl_dynamics and examples/sensing_suite hashes to the SHA-256
#      recorded in tests/golden/figures.sha256, so a change that moves a
#      paper figure's numbers by one bit fails here
#   2. focused re-runs of the observability suites (ctest -L telemetry,
#      ctest -L trace), the fleet control-plane suite (ctest -L fleet), the
#      precompute-store suite (ctest -L precompute), the
#      daemon/wire-protocol suite (ctest -L daemon), the orchestrator
#      suite with its plan-reuse contracts (ctest -L orch) and the
#      determinism drill against tests/golden/drill.txt (ctest -L drill) so
#      a regression there is named, not buried
#   3. forced-scalar re-run of the full suite (SURFOS_SIMD=scalar): the
#      scalar SIMD backend is the bit-exact reference, so every test must
#      pass with vectorization disabled
#   4. TSan build of the thread-pool/tracing/telemetry/fleet/daemon/
#      precompute/orchestrator tests and the determinism drill (ctest -L
#      "tsan|trace|fleet|daemon|precompute|orch|drill|telemetry" in
#      ./build-tsan); any sanitizer report fails the run
#   4b. ASan+LSan build of every test target and every example (./build-asan)
#      and a plain ctest over the whole suite; any memory error or leak
#      fails the run
#   5. UBSan build of the SIMD, geometry, EM, sim and tracer tests (ctest -L
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
echo "== planes: src/ speaks only em::CxPlanes / em::CxPlaneMat"
if grep -rnwE 'CVec|CMat' src; then
  echo "src/ names CVec/CMat; complex vectors and matrices are em::CxPlanes"
  echo "and em::CxPlaneMat (em/soa.hpp)"
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
echo "== deleted: no metrics ring, CSV writer, fleet precompute shim, second driver, ARQ SLO, second complex type, partial surface write, scalar link gradient, nested-loop pool counter or receiver-lane tracer"
if grep -rnE 'Timeseries|timeseries\.hpp|delta_since|MetricsDelta|CsvWriter|precompute_stats|ReliableSurfaceDriver|hal/reliable\.hpp|SURFOS_SLO_RETRY_PCT|kSloRetryPct|arq_retry_total|\bCVec\b|\bCMat\b|to_cvec|write_elements|kWriteElements|\bElementUpdate\b|(en|de)code_element_updates|kQueryStatus|\bkNack\b|accumulate_power_gradient|util\.pool\.dispatches|util\.pool\.nested_inline|\bplane_clip\b|\bfresnel_reflect\b|\bPlaneRect\b|images_of|clip_sequence|load_rx_block|trace_block|make_pos_planes|\bPosPlanes\b' \
    src tools bench tests examples; then
  echo "a deleted name is back: metrics subscriptions diff against their anchor"
  echo "snapshot, PrecomputeStore::instance().stats() is the store's stats,"
  echo "ProgrammableSurfaceDriver is the one programmable driver, the SLO"
  echo "watchdog has no ARQ-retry signal, em::CxPlanes / em::CxPlaneMat"
  echo "are the one complex vector and matrix (no CVec, CMat or to_cvec),"
  echo "and a surface takes whole configs only: write_config + select_config;"
  echo "a link term's gradient is Ops::power_grad_accum over its LinkFold,"
  echo "a nested parallel loop touches no pool counter, and BatchTracer"
  echo "has one work layout: per-lane clip (plane_clip_lanes) and Fresnel"
  echo "(fresnel_reflect_lanes) kernels over compacted (sequence, receiver)"
  echo "lanes, with the TX images laid out at construction"
  exit 1
fi

echo
echo "== tier 1: build + full test suite (build/)"
cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo
echo "== figures: paper-figure stdout matches tests/golden/figures.sha256"
# Each line of the golden file is "<sha256>  <binary under build/>". When a
# change is meant to move a figure, regenerate the file from a clean build:
#   (cd build && for b in bench/bench_fig2_conflict bench/bench_fig5_multitask \
#       bench/bench_abl_dynamics examples/sensing_suite; do
#     printf '%s  %s\n' "$(./"$b" | sha256sum | cut -d' ' -f1)" "$b"; done) \
#     > tests/golden/figures.sha256
while read -r WANT FIG_BIN; do
  GOT="$(./build/"$FIG_BIN" < /dev/null | sha256sum | cut -d' ' -f1)"
  [ "$GOT" = "$WANT" ] || {
    echo "$FIG_BIN stdout changed: sha256 $GOT, golden $WANT"; exit 1; }
done < tests/golden/figures.sha256

echo
echo "== focused: telemetry + trace + fleet + daemon + precompute + orch + drill labels"
ctest --test-dir build --output-on-failure -L telemetry
ctest --test-dir build --output-on-failure -L trace
ctest --test-dir build --output-on-failure -L fleet
ctest --test-dir build --output-on-failure -L daemon
ctest --test-dir build --output-on-failure -L precompute
ctest --test-dir build --output-on-failure -L orch
ctest --test-dir build --output-on-failure -L drill

echo
echo "== forced scalar: full suite with SURFOS_SIMD=scalar (vector dispatch off)"
SURFOS_SIMD=scalar ctest --test-dir build --output-on-failure -j"$JOBS"


echo
echo "== tsan: thread-pool / tracing / daemon / orch / drill tests under ThreadSanitizer (build-tsan/)"
cmake -B build-tsan -S . -DSURFOS_SANITIZE=thread
cmake --build build-tsan -j"$JOBS" --target \
  test_thread_pool test_parallel_determinism test_trace test_telemetry \
  test_precompute test_fleet test_admission test_proto test_daemon \
  test_streaming test_orch test_drill
# TSan findings abort the test process (halt_on_error) so a data race can
# never hide behind a green assertion run. -L is a regex: the trace suite
# hammers the recorder from pool workers, the telemetry suite records one
# histogram from several threads into its per-thread shards while spans
# close on pool workers, the fleet suite steps sites
# concurrently on the pool, the daemon suite runs the ticker and
# poll() server threads against client connections, and the precompute
# suite exercises the mutex-guarded global artifact store from pool
# workers, the orch suite runs the joint objective, whose leased
# scratch buffers are filled by per-RX pool workers and shared by
# concurrent value_batch callers, and the drill runs whole surfosd epochs
# at pool size 4, where each site's FleetReport record is encoded on the
# pool worker that stepped the site, so all of them run under TSan too.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  ctest --test-dir build-tsan --output-on-failure \
  -L "tsan|trace|fleet|daemon|precompute|orch|drill|telemetry"

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
cmake --build build-ubsan -j"$JOBS" --target test_simd test_geom test_em test_sim \
  test_trace_batch
# halt_on_error turns any UB report into a test failure instead of a log
# line; the simd suite runs every available backend against the scalar
# reference, so lane-kernel UB (misaligned loads, bad masks) surfaces here.
# Label geom is test_geom (BVH build and refit, triangle and slab tests),
# test_em, test_sim (ray tracer, environment, channel precompute) and
# test_trace_batch (the batch tracer's golden bits and lane independence).
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

#!/usr/bin/env sh
# Smoke and chaos tests for the simulation daemon.
#
# Usage: serve_smoke.sh [smoke|chaos|cluster|all]   (default: smoke)
#
#   smoke   — boot simd on an ephemeral port, submit a small Cholesky job
#             over HTTP, poll it to completion, check the observability
#             endpoints, then drain with SIGTERM and require a clean exit.
#   chaos   — restart-recovery: boot simd with a journaled data dir, submit
#             jobs (one pinned behind a deliberately slow occupant so it is
#             still queued), SIGKILL the daemon mid-load, restart it on the
#             same data dir, and require every acknowledged job to finish
#             exactly once with a fingerprint identical to the pre-kill
#             reference; kill it again and require a repeat job served from
#             its disk frame and a finished job's trace still served.
#   cluster — scale-out: boot simcoord plus two simd workers, fan a sweep
#             across both and require the merged fingerprint to be
#             bit-identical to a single-node run; restart the workers and
#             require a repeat job to be served from the owning worker's
#             disk frame with zero captures cluster-wide; SIGKILL a worker
#             mid-sweep and require the re-dispatched result to carry the
#             identical fingerprint; restart simcoord on its data dir and
#             require a finished dispatch's fingerprint still served.
#
# CI runs smoke in the serve-smoke job, chaos in the chaos job and cluster
# in the cluster job; locally: make serve-smoke / make cluster-smoke.
# Needs only curl + sed (no jq), so it runs on a bare runner.
set -eu

stage="${1:-smoke}"

workdir=$(mktemp -d)
bin="$workdir/simd"
pid=""
extra_pids=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    for p in $extra_pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/simd

# boot <extra flags...> — start simd, wait for its address file, set $pid
# and $base.
boot() {
    addrfile="$workdir/addr"
    logfile="$workdir/simd.log"
    rm -f "$addrfile"
    "$bin" -addr 127.0.0.1:0 -addr-file "$addrfile" "$@" >"$logfile" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
        [ -s "$addrfile" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "simd died during startup"; cat "$logfile"; exit 1; }
        sleep 0.1
    done
    [ -s "$addrfile" ] || { echo "simd never published its address"; cat "$logfile"; exit 1; }
    base="http://$(cat "$addrfile")"
}

# submit <json> — POST a job spec, print its id.
submit() {
    out=$(curl -fsS -X POST "$base/jobs" -H 'Content-Type: application/json' -d "$1")
    id=$(printf '%s' "$out" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
    [ -n "$id" ] || { echo "submit returned no job id: $out" >&2; exit 1; }
    printf '%s' "$id"
}

# field <id> <key> — poll one job and print a top-level string field.
field() {
    curl -fsS "$base/jobs/$1" | sed -n 's/.*"'"$2"'":"\([^"]*\)".*/\1/p'
}

# run_ms <id> — print a job's run time in milliseconds.
run_ms() {
    ns=$(curl -fsS "$base/jobs/$1" | sed -n 's/.*"run_ns":\([0-9]*\).*/\1/p')
    echo $(( ${ns:-0} / 1000000 ))
}

# wait_done <id> — poll a job until done (fails on failed/rejected/dead).
wait_done() {
    st=""
    for _ in $(seq 1 200); do
        doc=$(curl -fsS "$base/jobs/$1")
        st=$(printf '%s' "$doc" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
        [ "$st" = "done" ] && return 0
        case "$st" in failed|rejected|dead) echo "job $1 $st: $doc"; exit 1;; esac
        sleep 0.1
    done
    echo "job $1 stuck at '$st'"
    exit 1
}

# wait_final <id> <polls> — poll a job every 0.1 s, at most <polls> times,
# until it leaves queued/running; print its final status (or the last one
# seen) and leave the job document in $doc.
wait_final() {
    st=""
    for _ in $(seq 1 "$2"); do
        doc=$(curl -fsS "$base/jobs/$1")
        st=$(printf '%s' "$doc" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
        case "$st" in queued|running|retrying) sleep 0.1;; *) break;; esac
    done
    printf '%s' "$st"
}

smoke_stage() {
    boot -pool 2
    echo "simd listening on $base"

    curl -fsS "$base/healthz" >/dev/null

    id=$(submit '{"algorithm": "cholesky", "nt": 6, "nb": 8, "workers": 4, "seed": 1}')
    echo "submitted $id"
    wait_done "$id"
    doc=$(curl -fsS "$base/jobs/$id")
    printf '%s' "$doc" | grep -q '"makespan":' || { echo "done job has no makespan: $doc"; exit 1; }
    echo "job done"

    # The trace endpoints serve the virtual trace both ways. (grep without
    # -q so it drains the body; -q quits early and curl reports a broken
    # pipe.)
    curl -fsS "$base/jobs/$id/trace" | grep '"events":' >/dev/null || { echo "trace endpoint broken"; exit 1; }
    curl -fsS "$base/jobs/$id/trace.svg" | grep '<svg' >/dev/null || { echo "trace.svg endpoint broken"; exit 1; }

    # Metrics reflect the finished job.
    metrics=$(curl -fsS "$base/metrics")
    printf '%s' "$metrics" | grep -q '"done":1' || { echo "metrics missing the job: $metrics"; exit 1; }
    echo "metrics ok"

    # A sweep under the service's constant model draws no randomness: each
    # point replays once and every replica carries that makespan, so a
    # thousand replicas cost one.
    quark_sweep='{"kind": "sweep", "algorithm": "cholesky", "max_nt": 48, "nb": 8, "workers": 8, "reps": 1000}'
    id=$(submit "$quark_sweep")
    st=$(wait_final "$id" 50)
    [ "$st" = "done" ] || { echo "reps-1000 sweep not done within 5 s (status '$st')"; exit 1; }
    curl -fsS "$base/jobs/$id" | grep -o '"Makespans":\[[^]]*\]' | awk -F'[][,]' '
        { for (i = 3; i < NF; i++) if ($i != $2) { print "point " NR ": replica makespans differ"; bad = 1; exit } }
        END { if (NR == 0) { print "sweep result has no points"; exit 1 } exit bad }' ||
        { echo "reps-1000 sweep result is wrong"; exit 1; }
    fp_first=$(field "$id" fingerprint)
    [ -n "$fp_first" ] || { echo "reps-1000 sweep has no fingerprint"; exit 1; }
    echo "reps-1000 sweep ok in $(run_ms "$id") ms"

    # Direct (no_cache) jobs cut their op streams and task slabs from the
    # pool captures use, and their trace lanes from the simulator's: the
    # golden direct job, run before the StarPU sweep and again after it on
    # whatever the sweep left in the pool, must read its pinned fingerprint
    # both times.
    golden_direct() {
        id=$(submit '{"algorithm": "lu", "nt": 3, "nb": 8, "workers": 1, "seed": 3, "no_cache": true, "trace": false}')
        wait_done "$id"
        fp=$(field "$id" fingerprint)
        [ "$fp" = "95dd60dcfe869fba" ] || { echo "golden direct job $1 the starpu sweep: fingerprint '$fp', want 95dd60dcfe869fba"; exit 1; }
        echo "golden direct job $1 the starpu sweep ok ($fp)"
    }
    golden_direct before

    # Captures recycle their op streams and task slabs: a StarPU sweep (no
    # window, every task of a point live at once) reuses the quark sweep's
    # buffers, and the quark sweep run again on whatever they held must
    # reproduce its first result bit for bit.
    id=$(submit '{"kind": "sweep", "algorithm": "cholesky", "scheduler": "starpu", "max_nt": 48, "nb": 8, "workers": 8, "reps": 1000}')
    st=$(wait_final "$id" 100)
    [ "$st" = "done" ] || { echo "starpu sweep not done within 10 s (status '$st')"; exit 1; }
    echo "starpu sweep done in $(run_ms "$id") ms"
    golden_direct after
    id=$(submit "$quark_sweep")
    st=$(wait_final "$id" 100)
    [ "$st" = "done" ] || { echo "repeated quark sweep not done within 10 s (status '$st')"; exit 1; }
    fp_again=$(field "$id" fingerprint)
    [ "$fp_again" = "$fp_first" ] || { echo "repeated quark sweep fingerprint '$fp_again', first run $fp_first"; exit 1; }
    echo "repeated quark sweep identical ($fp_first) in $(run_ms "$id") ms"

    # A sweep stops at its deadline instead of finishing first.
    id=$(submit '{"kind": "sweep", "algorithm": "cholesky", "max_nt": 64, "nb": 8, "workers": 4, "deadline_ms": 50}')
    st=$(wait_final "$id" 100)
    [ "$st" = "failed" ] || { echo "deadline sweep ended '$st', want failed"; exit 1; }
    echo "deadline sweep failed as it should"

    # Metrics: the simulate job, the two golden direct jobs and the three
    # sweeps done, the deadline sweep failed.
    metrics=$(curl -fsS "$base/metrics")
    printf '%s' "$metrics" | grep -q '"done":6' || { echo "metrics miss the done sweeps: $metrics"; exit 1; }
    printf '%s' "$metrics" | grep -q '"failed":1' || { echo "metrics miss the failed sweep: $metrics"; exit 1; }
    echo "sweep metrics ok"

    # Graceful drain: SIGTERM must produce a clean exit.
    kill -TERM "$pid"
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "simd ignored SIGTERM"; cat "$logfile"; exit 1; }
        sleep 0.1
    done
    wait "$pid" 2>/dev/null && rc=0 || rc=$?
    pid=""
    [ "$rc" -eq 0 ] || { echo "simd exited rc=$rc after SIGTERM"; cat "$logfile"; exit 1; }
    grep -q 'drained' "$logfile" || { echo "no drain summary in the log"; cat "$logfile"; exit 1; }
    echo "serve smoke passed"
}

chaos_stage() {
    datadir="$workdir/data"

    # Reference run: finish the probe jobs cleanly and record fingerprints.
    boot -pool 2
    ref1=$(submit '{"algorithm": "cholesky", "nt": 5, "nb": 8, "workers": 4, "seed": 42}')
    ref2=$(submit '{"algorithm": "qr", "nt": 4, "nb": 8, "workers": 2, "seed": 43, "reps": 2}')
    wait_done "$ref1"; wait_done "$ref2"
    fp1=$(field "$ref1" fingerprint)
    fp2=$(field "$ref2" fingerprint)
    [ -n "$fp1" ] && [ -n "$fp2" ] || { echo "reference jobs missing fingerprints"; exit 1; }
    kill -TERM "$pid"; wait "$pid" 2>/dev/null || true; pid=""
    echo "reference fingerprints: $fp1 $fp2"

    # Durable run: pin the single pool slot with a slow stall-fault
    # occupant so the probe jobs are acknowledged but still queued, then
    # SIGKILL mid-load.
    boot -pool 1 -data-dir "$datadir"
    echo "chaos daemon on $base (data dir $datadir)"
    occ=$(submit '{"algorithm": "cholesky", "nt": 2, "nb": 8, "workers": 1, "fault": {"default": {"stall": 1}, "stall_wall_ns": 200000000}}')
    j1=$(submit '{"algorithm": "cholesky", "nt": 5, "nb": 8, "workers": 4, "seed": 42}')
    j2=$(submit '{"algorithm": "qr", "nt": 4, "nb": 8, "workers": 2, "seed": 43, "reps": 2}')
    echo "acked $occ $j1 $j2; killing with SIGKILL"
    kill -KILL "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""

    # Restart on the same data dir: every acknowledged job must recover
    # and finish with the reference fingerprint.
    boot -pool 2 -data-dir "$datadir"
    grep -q 'recovered from' "$logfile" || { echo "restart did not report recovery"; cat "$logfile"; exit 1; }
    wait_done "$occ"; wait_done "$j1"; wait_done "$j2"
    rfp1=$(field "$j1" fingerprint)
    rfp2=$(field "$j2" fingerprint)
    [ "$rfp1" = "$fp1" ] || { echo "job $j1 recovered with fingerprint $rfp1, want $fp1"; exit 1; }
    [ "$rfp2" = "$fp2" ] || { echo "job $j2 recovered with fingerprint $rfp2, want $fp2"; exit 1; }

    # Exactly once: each recovered ID appears once in the job list.
    jobs=$(curl -fsS "$base/jobs")
    for id in "$occ" "$j1" "$j2"; do
        n=$(printf '%s' "$jobs" | grep -o "\"id\":\"$id\"" | wc -l)
        [ "$n" -eq 1 ] || { echo "job $id appears $n times after recovery, want 1"; exit 1; }
    done

    # The store section reports durability and the recovery counts.
    metrics=$(curl -fsS "$base/metrics")
    printf '%s' "$metrics" | grep -q '"durable":true' || { echo "metrics missing durable store: $metrics"; exit 1; }

    # Persistent capture cache: kill the daemon again and require a fresh
    # process on the same data dir to serve a repeat of a previously-
    # captured job from its .dag frame — zero capture runs, identical
    # fingerprint.
    kill -KILL "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
    boot -pool 2 -data-dir "$datadir"
    d1=$(submit '{"algorithm": "cholesky", "nt": 5, "nb": 8, "workers": 4, "seed": 42}')
    wait_done "$d1"
    dcache=$(field "$d1" cache)
    [ "$dcache" = "disk" ] || { echo "repeat job served with cache='$dcache', want disk"; exit 1; }
    dfp=$(field "$d1" fingerprint)
    [ "$dfp" = "$fp1" ] || { echo "disk-served job fingerprint $dfp, want $fp1"; exit 1; }
    metrics=$(curl -fsS "$base/metrics")
    printf '%s' "$metrics" | grep -q '"captures":0' || { echo "restarted daemon re-captured: $metrics"; exit 1; }
    echo "disk capture cache passed"

    # A replayed job keeps its fingerprint and no trace, so one that finished
    # before the SIGKILL must still serve its trace from the new process:
    # re-derived from the persisted frame (j2's graph is not in memory here)
    # and checked against the journaled fingerprint, without a capture run.
    curl -fsS "$base/jobs/$j2" | grep '"has_trace":true' >/dev/null || { echo "recovered job $j2 does not advertise its trace"; exit 1; }
    curl -fsS "$base/jobs/$j2/trace" | grep '"events":' >/dev/null || { echo "recovered job $j2 did not serve its trace"; exit 1; }
    metrics=$(curl -fsS "$base/metrics")
    printf '%s' "$metrics" | grep -q '"captures":0' || { echo "trace of a recovered job was re-captured, not loaded: $metrics"; exit 1; }
    echo "recovered job's trace served"

    kill -TERM "$pid"
    wait "$pid" 2>/dev/null && rc=0 || rc=$?
    pid=""
    [ "$rc" -eq 0 ] || { echo "simd exited rc=$rc after chaos drain"; cat "$logfile"; exit 1; }
    echo "chaos recovery passed"
}

# --- cluster helpers -------------------------------------------------

ckey="smoke-cluster-key"

# wait_pid_file <file> <log> — wait for an address file to appear.
wait_addr() {
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "no address file $1"; cat "$2"; exit 1
}

# cboot [addr] — start simcoord on its data dir (default: an ephemeral
# port); sets $cpid and $coord.
cboot() {
    rm -f "$workdir/coord.addr"
    "$workdir/simcoord" -addr "${1:-127.0.0.1:0}" -addr-file "$workdir/coord.addr" \
        -data-dir "$workdir/coord.data" \
        -cluster-key "$ckey" -heartbeat 250ms -heartbeat-timeout 1200ms -poll 100ms \
        >>"$workdir/coord.log" 2>&1 &
    cpid=$!
    extra_pids="$extra_pids $cpid"
    wait_addr "$workdir/coord.addr" "$workdir/coord.log"
    coord="http://$(cat "$workdir/coord.addr")"
}

# wboot <n> — start cluster worker w<n> with a persistent data dir;
# prints its PID.
wboot() {
    rm -f "$workdir/w$1.addr"
    "$bin" -addr 127.0.0.1:0 -addr-file "$workdir/w$1.addr" -pool 2 \
        -data-dir "$workdir/w$1.data" -coordinator "$coord" \
        -cluster-key "$ckey" -worker-name "w$1" \
        >>"$workdir/w$1.log" 2>&1 &
    wpid=$!
    extra_pids="$extra_pids $wpid"
    wait_addr "$workdir/w$1.addr" "$workdir/w$1.log"
    printf '%s' "$wpid"
}

# wait_live <n> — poll the coordinator until n workers are live.
wait_live() {
    for _ in $(seq 1 100); do
        curl -fsS "$coord/healthz" | grep -q "\"live\":$1" && return 0
        sleep 0.1
    done
    echo "cluster never reached $1 live workers: $(curl -fsS "$coord/healthz")"
    exit 1
}

# csubmit <json> — submit a job to the coordinator, print the dispatch id.
csubmit() {
    out=$(curl -fsS -X POST "$coord/jobs" -H 'Content-Type: application/json' -d "$1")
    id=$(printf '%s' "$out" | sed -n 's/.*"id":"\(d-[0-9]*\)".*/\1/p')
    [ -n "$id" ] || { echo "cluster submit returned no dispatch id: $out" >&2; exit 1; }
    printf '%s' "$id"
}

# cwait_done <id> — poll a dispatch until done (fails on failed).
cwait_done() {
    st=""
    for _ in $(seq 1 300); do
        doc=$(curl -fsS "$coord/jobs/$1")
        st=$(printf '%s' "$doc" | sed -n 's/^{"id":"[^"]*","status":"\([^"]*\)".*/\1/p')
        [ "$st" = "done" ] && return 0
        [ "$st" = "failed" ] && { echo "dispatch $1 failed: $doc"; exit 1; }
        sleep 0.1
    done
    echo "dispatch $1 stuck at '$st': $(curl -fsS "$coord/jobs/$1")"
    exit 1
}

# cfp <id> — print a finished dispatch's merged fingerprint.
cfp() {
    curl -fsS "$coord/jobs/$1" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p'
}

cluster_stage() {
    go build -o "$workdir/simcoord" ./cmd/simcoord

    sweep_a='{"kind":"sweep","algorithm":"cholesky","max_nt":6,"nb":8,"workers":4,"seed":9,"reps":4}'
    # Half a second of captures per part: long enough that the SIGKILL in
    # the failover stage lands while w2 still runs its slice (a part's end
    # is noticed at once now, not on the next tick).
    sweep_b='{"kind":"sweep","algorithm":"qr","max_nt":48,"nb":8,"workers":4,"seed":31,"reps":4}'
    simjob='{"algorithm":"qr","nt":5,"nb":8,"workers":2,"seed":17}'

    # Reference fingerprints from a plain single-node run.
    boot -pool 2
    r1=$(submit "$sweep_a"); r2=$(submit "$sweep_b"); r3=$(submit "$simjob")
    wait_done "$r1"; wait_done "$r2"; wait_done "$r3"
    ref_a=$(field "$r1" fingerprint)
    ref_b=$(field "$r2" fingerprint)
    ref_j=$(field "$r3" fingerprint)
    [ -n "$ref_a" ] && [ -n "$ref_b" ] && [ -n "$ref_j" ] || { echo "reference run missing fingerprints"; exit 1; }
    kill -TERM "$pid"; wait "$pid" 2>/dev/null || true; pid=""
    echo "single-node references: $ref_a $ref_b $ref_j"

    cboot
    echo "simcoord on $coord"
    w1=$(wboot 1)
    w2=$(wboot 2)
    wait_live 2

    # Fan-out: the sweep splits across both workers, and the merged
    # statistics are bit-identical to the single-node run.
    d1=$(csubmit "$sweep_a")
    cwait_done "$d1"
    doc=$(curl -fsS "$coord/jobs/$d1")
    printf '%s' "$doc" | grep -q '"point_stride":2' || { echo "sweep was not fanned out: $doc"; exit 1; }
    fp=$(cfp "$d1")
    [ "$fp" = "$ref_a" ] || { echo "fanned sweep fingerprint $fp, want $ref_a"; exit 1; }
    # Each worker told the coordinator its part was done (the agents
    # registered with the coordinator's URL); the tick is only the backstop.
    metrics=$(curl -fsS "$coord/metrics")
    printf '%s' "$metrics" | grep -Eq '"done_hints":([2-9]|[1-9][0-9])' || { echo "fanned sweep finished without both done hints: $metrics"; exit 1; }
    echo "fan-out fingerprint identical, both parts announced by done hints"

    # Cache routing: a cacheable job is captured once on its ring owner;
    # after both workers restart, the repeat routed through the
    # coordinator is served from the owner's disk frame — zero captures
    # across the whole cluster.
    d2=$(csubmit "$simjob")
    cwait_done "$d2"
    [ "$(cfp "$d2")" = "$ref_j" ] || { echo "cluster job fingerprint $(cfp "$d2"), want $ref_j"; exit 1; }
    kill -TERM "$w1" "$w2"
    while kill -0 "$w1" 2>/dev/null || kill -0 "$w2" 2>/dev/null; do sleep 0.1; done
    w1=$(wboot 1)
    w2=$(wboot 2)
    wait_live 2
    d3=$(csubmit "$simjob")
    cwait_done "$d3"
    [ "$(cfp "$d3")" = "$ref_j" ] || { echo "repeat job fingerprint $(cfp "$d3"), want $ref_j"; exit 1; }
    metrics=$(curl -fsS "$coord/metrics")
    printf '%s' "$metrics" | grep -q '"captures":0' || { echo "repeat job re-captured after restart: $metrics"; exit 1; }
    printf '%s' "$metrics" | grep -q '"disk_hits":1' || { echo "repeat job missed the disk frame: $metrics"; exit 1; }
    echo "restarted cluster served the repeat from the disk frame (captures 0)"

    # Failover: kill a worker right after a fresh sweep is accepted; its
    # slice is re-dispatched onto the survivor and the merged result is
    # still bit-identical.
    d4=$(csubmit "$sweep_b")
    kill -KILL "$w2"
    cwait_done "$d4"
    fp=$(cfp "$d4")
    [ "$fp" = "$ref_b" ] || { echo "failover sweep fingerprint $fp, want $ref_b"; exit 1; }
    metrics=$(curl -fsS "$coord/metrics")
    printf '%s' "$metrics" | grep -q '"failovers":[1-9]' || { echo "no failover recorded: $metrics"; exit 1; }
    printf '%s' "$metrics" | grep -q '"mismatches":0' || { echo "fingerprint mismatch across attempts: $metrics"; exit 1; }
    echo "failover re-dispatch fingerprint identical"

    # Coordinator restart: the dispatch store under its data dir restores
    # the finished dispatches with their fingerprints, and the surviving
    # worker re-registers on the same address.
    kill -TERM "$cpid"
    while kill -0 "$cpid" 2>/dev/null; do sleep 0.1; done
    cboot "${coord#http://}"
    fp=$(cfp "$d1")
    [ "$fp" = "$ref_a" ] || { echo "restarted simcoord serves fingerprint '$fp' for $d1, want $ref_a"; exit 1; }
    metrics=$(curl -fsS "$coord/metrics")
    printf '%s' "$metrics" | grep -q '"restored":[1-9]' || { echo "restarted simcoord restored nothing: $metrics"; exit 1; }
    wait_live 1
    echo "restarted simcoord restored its finished dispatches"

    kill -TERM "$w1" 2>/dev/null || true
    kill -TERM "$cpid" 2>/dev/null || true
    # Let both drain before cleanup removes the data dirs under them.
    while kill -0 "$w1" 2>/dev/null || kill -0 "$cpid" 2>/dev/null; do sleep 0.1; done
    echo "cluster smoke passed"
}

case "$stage" in
smoke) smoke_stage ;;
chaos) chaos_stage ;;
cluster) cluster_stage ;;
all) smoke_stage; chaos_stage; cluster_stage ;;
*) echo "usage: $0 [smoke|chaos|cluster|all]"; exit 2 ;;
esac

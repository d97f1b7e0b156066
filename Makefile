# Developer entry points. `make lint` runs exactly what CI's static job
# runs; `make check` is the full pre-push gauntlet.

GO ?= go

.PHONY: build test race race-pdes lint lint-fix-check bench serve-smoke chaos cluster-smoke e2e-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/core ./internal/sched/... ./internal/hazard ./internal/factor ./internal/fault ./internal/trace ./internal/pq ./internal/replay ./internal/bench ./internal/server ./internal/journal ./internal/cluster

# The PDES executor's LP/channel protocol, hammered repeatedly without
# -short so the full stress matrix runs under the race detector.
race-pdes:
	$(GO) test -race -run 'PDES' -count 2 ./internal/replay

lint:
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v testdata))"
	$(GO) vet ./...
	$(GO) run ./cmd/simlint ./...

# lint-fix-check asserts the tree is simlint-clean the same way CI's
# static job does: the machine-readable diagnostic pass (exit 1 on any
# finding) plus the //simlint:allow reason audit (exit 1 on any
# suppression without a justification). Run it after fixing or
# allowing a diagnostic to prove the tree is green again before push.
lint-fix-check:
	$(GO) run ./cmd/simlint -json ./...
	$(GO) run ./cmd/simlint -allowlist ./...

bench:
	$(GO) run ./cmd/simbench -benchtime 200ms

serve-smoke:
	sh scripts/serve_smoke.sh smoke

chaos:
	sh scripts/serve_smoke.sh chaos

cluster-smoke:
	sh scripts/serve_smoke.sh cluster

# The benchmark harness checks every op's result fingerprint (and, on the
# serve workloads, its cache disposition) against a reference computed
# through a different path; run here as a pass/fail gate, numbers discarded.
# The three capture-cache workloads, lib-direct, whose every op is one run
# of the real scheduler (bench.Simulated), serve-sweep, whose every op
# captures its points in one pass each (CaptureArena inside
# SweepParallel), replay-large, the one workload that
# Loads a large frame (117k tasks) and replays it with a trace, and
# cluster-sweep, whose every op is a sweep fanned over two workers as point
# slices and merged. 3 s, not less: serve-miss is a fixed 48 ops/s window,
# and a run with under 100 latency samples exits non-zero; replay-large
# runs ~28 ops/s and a sweep op is ~10 ms, so they get 5 s (cluster-sweep's
# window is a fixed 24 ops per second asked for).
e2e-smoke:
	for w in serve-hit serve-disk serve-miss lib-direct; do \
		$(GO) run ./benchmark -workload $$w -trace 0 -seconds 3 || exit 1; \
	done
	for w in replay-large serve-sweep cluster-sweep; do \
		$(GO) run ./benchmark -workload $$w -trace 0 -seconds 5 || exit 1; \
	done

check: lint lint-fix-check build test race race-pdes serve-smoke chaos cluster-smoke e2e-smoke

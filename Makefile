# Tier-1 verification and development targets. `make verify` is the
# canonical local gate and mirrors the CI pipeline: format + vet gates,
# build, tests, targeted race tests and the bwserved/bwpredict smoke
# diff. `make ci` additionally runs the fuzz targets, the
# bench-regression check and the service-level load + replay gates
# (separate CI jobs, kept out of verify because each takes ~20s).
GO ?= go

.PHONY: build test race allocs fuzz bench bench-json bench-check fmt vet serve smoke load-smoke replay-check gateway-smoke verify ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the concurrency-bearing packages, matching the CI race
# step: the parallel experiment runner, the engines, and the HTTP
# serving layer (worker tier, gateway tier and their binaries). The
# engine packages (netsim, predict sessions, the des queue and the
# replay package) run at -cpu=1,2,8, so their differential tests see
# more than one GOMAXPROCS under the detector.
race:
	$(GO) test -race -cpu=1,2,8 ./internal/netsim/... ./internal/des/ ./internal/predict/ ./internal/replay/
	$(GO) test -race ./internal/experiments/ ./internal/fault/ ./internal/server/ ./internal/fleet/ ./internal/gateway/ ./cmd/bwserved/ ./cmd/bwgate/

# allocs runs the zero-allocation tests, and the replay driver's
# warm-run bound (the Result and its Tasks only), at GOMAXPROCS 1 and 4:
# an allocation that only shows with more than one P fails here too.
allocs:
	$(GO) test -run 'ZeroAllocs|WarmAllocs' -cpu=1,4 ./internal/netsim/... ./internal/predict/ ./internal/fault/ ./internal/model/ ./internal/cluster/ ./internal/replay/

# fuzz runs each fuzz target for a short fixed time. Their seed corpora
# (testdata/fuzz) already run as plain tests under `go test`; this
# explores beyond them. FuzzDegreePenalties holds the dense degree-model
# kernels to the Definition 1 oracle, bit for bit. FuzzResolveGraph
# feeds request bodies to the serving layer's resolver: no panic, and
# every accepted fault schedule compiles with bounded host ids and at
# most api.MaxFaultEvents faults. FuzzReplayMatchesOracle replays small
# random traces with the indexed driver and the scan-based oracle on
# every engine: bit-identical results or the same error.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDegreePenalties$$' -fuzztime 20s ./internal/model/
	$(GO) test -run '^$$' -fuzz '^FuzzResolveGraph$$' -fuzztime 20s ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayMatchesOracle$$' -fuzztime 20s ./internal/replay/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-json writes the next perf-trajectory snapshot BENCH_<n>.json via
# cmd/bwbench (full suite; go-bench lines stream to stdout; n is one past
# the highest existing snapshot, or PR=<n> to force). Compare snapshots
# across PRs, or pipe repeated runs into benchstat.
bench-json:
	$(GO) run ./cmd/bwbench $(if $(PR),-pr $(PR))

# bench-check is the CI regression gate: rerun the suite and fail on
# >25% ns/op regression (or any allocation on a zero-alloc suite)
# against the latest committed BENCH_<n>.json, or BASELINE=<path>.
# IGNORE_MISSING=<regexp> exempts matching baseline entries from the
# missing-from-run failure (for gating against an older snapshot).
bench-check:
	$(GO) run ./cmd/bwbench -check $(if $(BASELINE),-baseline $(BASELINE)) $(if $(IGNORE_MISSING),-ignore-missing '$(IGNORE_MISSING)')

# fmt fails (listing the files) if any file needs gofmt; same gate as CI.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# serve runs the HTTP prediction service; SERVE_FLAGS passes extra flags
# (e.g. make serve SERVE_FLAGS="-addr 127.0.0.1:9000 -workers 8").
serve:
	$(GO) run ./cmd/bwserved $(SERVE_FLAGS)

# smoke starts bwserved and diffs /v1/predict?format=text against
# bwpredict stdout for catalog schemes — byte-identical or it fails.
smoke:
	sh scripts/smoke.sh

# load-smoke starts bwserved (pinned sizing) and drives a short
# fixed-seed mixed workload with bwload; any failed request fails the
# run. ARTIFACT_DIR=<dir> keeps the latency log and report.
load-smoke:
	sh scripts/load_smoke.sh

# replay-check replays the committed deterministic traffic log
# scripts/testdata/load_replay.golden against a fresh bwserved and fails
# on any behavioral divergence. After an intended behavior change,
# re-record with `sh scripts/replay_check.sh record`.
replay-check:
	sh scripts/replay_check.sh

# gateway-smoke records a fixed-seed stream against a direct worker,
# replays it through a bwgate over two fresh replicas (must be
# byte-identical — zero divergences), then runs a concurrent load pass
# through the gateway and checks both upstreams served. ARTIFACT_DIR
# keeps the logs, recorded stream and fleet report.
gateway-smoke:
	sh scripts/gateway_smoke.sh

verify: fmt vet build test allocs race smoke

ci: verify fuzz bench-check load-smoke replay-check gateway-smoke

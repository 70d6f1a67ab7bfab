# Tier-1 verification gate (see ROADMAP.md). `make check` is what CI
# and every PR must keep green.

GO ?= go

.PHONY: check fmt vet lint build test race bench benchall e2e fingerprint

check: fmt vet lint build race e2e

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet runs under both build-tag configurations: the default build
# (debug HTTP endpoint in) and -tags vbench_nodebug (endpoint
# stripped), so neither bitrots.
vet:
	$(GO) vet ./...
	$(GO) vet -tags vbench_nodebug ./...

# lint runs the project analyzers (detorder, spanpair, metricname,
# lockflow — see docs/LINT.md) through the go vet driver so results
# cache per package, under both build-tag configurations like vet.
lint:
	$(GO) build -o bin/vbenchlint ./cmd/vbenchlint
	$(GO) vet -vettool=$(CURDIR)/bin/vbenchlint ./...
	$(GO) vet -vettool=$(CURDIR)/bin/vbenchlint -tags vbench_nodebug ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# e2e runs the loopback master/worker smoke: 50 jobs across two
# vbenchd workers with one SIGKILLed mid-lease — every job must drain
# exactly once (see scripts/e2e_fleet.sh).
e2e:
	./scripts/e2e_fleet.sh

# bench runs the harness-grid scaling benchmark, the telemetry
# overhead benchmark (acceptance budget: "on" < 5% over "off"), the
# encode allocation benchmark with wavefront off and on (budget in
# ALLOC_BUDGET.json), the wavefront row-parallel encode benchmark, the
# decode benchmark, the transcode-cache hit/miss benchmarks, the codec
# kernel micro-benchmarks (scalar vs SWAR, internal/codec/kern), and
# the motion-compensation micro-benchmark at an edge vs an interior
# origin (internal/codec/motion: with bordered references the
# edge/interior ratio is about 1), and records the machine-readable
# report in BENCH_harness.json.
bench:
	$(GO) test -bench 'HarnessGrid|TelemetryOverhead|EncodeAllocs|WavefrontEncode|Decode|CacheHit|CacheMiss|SAD|SATD|DCT|Quant|Interp|MotionComp' -benchmem -run '^$$' . ./internal/codec/kern ./internal/codec/motion \
		| $(GO) run ./cmd/benchjson -o BENCH_harness.json

# fingerprint regenerates the codec-version fingerprint baked into
# every cache key (internal/cas/fingerprint_gen.go). Run after any
# change under the fingerprinted trees (internal/{codec,corpus,
# metrics,perf,video}); TestFingerprintCurrent fails until you do.
fingerprint:
	$(GO) run ./internal/cas/gen

# benchall runs every benchmark in the repository.
benchall:
	$(GO) test -bench=. -benchmem -run=^$$ .

#!/usr/bin/env bash
# Full verification recipe: build, static checks, the whole test
# suite, then the race detector over the concurrency-heavy packages
# (the scraper/SLO pipeline, the instrumented API, the TSDB, the
# parallel sweep engine and the simulator it fans out, the audit
# ledger with its background resolver, the incident flight recorder
# with its capture worker, the usage accountant with its concurrent
# top-K churn suite, the model-run scheduler with its coalescing and
# calibration-cache churn suites, the continuous profiler with its
# concurrent capture/query/baseline-swap suite, and the chaos layer —
# whose invariant suite runs its fixed 3-seed × every-fault-kind
# matrix under -race here, and the load/soak harness), then a
# short fuzz smoke over the four parsers that face untrusted input
# (config YAML, API range queries, pprof protobuf profiles, TSDB
# snapshots), and
# finally a ~10s smoke soak: caladriusbench drives an in-process
# daemon through a chaos metrics outage and exits non-zero unless the
# SLOs resolve and the process returns to its goroutine baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "verify: gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
go build ./...
go vet ./...
go test ./...
go test -race ./internal/telemetry ./internal/api ./internal/tsdb
go test -race ./internal/incident
go test -race ./internal/audit
go test -race ./internal/usage
go test -race ./internal/sched
go test -race ./internal/experiments ./internal/heron
go test -race ./internal/chaos ./internal/metrics
go test -race ./internal/profiler
go test -race ./internal/bench
FUZZTIME="${VERIFY_FUZZTIME:-10s}"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME" ./internal/yamlite
go test -run '^$' -fuzz '^FuzzParseQueryRange$' -fuzztime "$FUZZTIME" ./internal/api
go test -run '^$' -fuzz '^FuzzPprofParse$' -fuzztime "$FUZZTIME" ./internal/profiler
go test -run '^$' -fuzz '^FuzzReadSnapshot$' -fuzztime "$FUZZTIME" ./internal/tsdb
SOAK_OUT=$(mktemp)
go run ./cmd/caladriusbench -soak -duration 6s -slo-window 4s -settle 12s -o "$SOAK_OUT"
rm -f "$SOAK_OUT"
echo "verify: all checks passed"

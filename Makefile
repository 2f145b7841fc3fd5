GO ?= go

.PHONY: check build vet test race fuzz bench

# Tier-1 gate: everything CI runs (the bench module's vet and smoke test, the
# grep gates, the fuzz smoke and the chaos/golden/serve gates included).
check:
	sh scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fuzz smoke check.sh runs: every fuzz target, FUZZTIME each (default
# 10s; longer runs: `make fuzz FUZZTIME=5m`).
fuzz:
	sh scripts/fuzz.sh

# The one benchmark instrument (bench/, its own module; BENCHMARK.json's
# command): every workload, untraced then traced. Compare two checkouts with
# `bash bench/run.sh -out A.json` on each and `bash bench/run.sh -compare A.json B.json`.
bench:
	bash bench/run.sh

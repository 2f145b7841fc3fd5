GO ?= go

.PHONY: check build vet test race fuzz bench

# Tier-1 gate: everything CI runs (the bench module's vet and smoke test, the
# grep gates, the fuzz smoke and the chaos/golden/bench/serve gates included).
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

bench:
	$(GO) test -bench=. -benchmem ./...

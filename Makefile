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

# Short fuzz smoke of the front end (longer runs: raise FUZZTIME).
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run FuzzLex -fuzz FuzzLex -fuzztime $(FUZZTIME) ./internal/lexer
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/parser

bench:
	$(GO) test -bench=. -benchmem ./...

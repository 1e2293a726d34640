# CI and humans invoke the same targets (.github/workflows/ci.yml).

GO ?= go

# Pinned staticcheck release; CI installs exactly this version, so a
# local `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`
# reproduces the gate bit for bit.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test race xrbench bench bench-json bench-compare lint fmt docs ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface; the seed is printed on failure for replay with -shuffle=<seed>.
race:
	$(GO) test -race -shuffle=on ./...

# The benchmark module (xrbench/) is its own Go module, outside ./...
xrbench:
	cd xrbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Benchmark trajectory: one 1x pass distilled into the newest committed
# BENCH_<n>.json (ns/op per benchmark); CI archives it per run.
bench-json:
	sh scripts/bench_json.sh

# Bench ratchet: fresh 1x pass diffed against the committed baseline;
# fails on any benchmark slower than BENCH_TOLERANCE (default 2.0x).
bench-compare:
	sh scripts/bench_compare.sh

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/xrlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

docs:
	sh scripts/check_docs.sh

ci: build lint race xrbench bench docs

# Tier-1 gate plus convenience targets. `make check` is what CI (and
# every PR) must keep green.

GO ?= go

.PHONY: check build test race vet vet-unsafeptr bench-build bench-e2e loc bench-serve bench-smoke bench-paper fuzz-smoke

# Measurement is not part of the gate: bench/ (BENCHMARK.json) owns it.
check: vet vet-unsafeptr build loc bench-build bench-e2e race bench-smoke ## tier-1: vet + build + no env reads under internal/ + bench/'s end-to-end smoke + race-clean tests + bench smoke

vet:
	$(GO) vet ./...

# The succinct bitvector kernels index raw word slices; keep the
# unsafe-pointer analyzer explicitly on so any future unsafe use in the
# hot paths is vetted.
vet-unsafeptr:
	$(GO) vet -unsafeptr ./...

build:
	$(GO) build ./...

# bench/ is a module of its own whose per-layer probes call internal
# signatures (algebra.Descendants, algebra.SemiJoinAncestor,
# Store.ParentBulk, KWayHeap): build and vet it here so a change to one
# fails at tier-1 time, not at the next benchmark run. Nothing is run, and
# the toolchain writes only under .bench_build/, as bench/run.sh has it.
BENCH_BUILD = $(CURDIR)/.bench_build
BENCH_ENV = GOCACHE=$(BENCH_BUILD)/gocache GOTMPDIR=$(BENCH_BUILD)/tmp GOPATH=$(BENCH_BUILD)/gopath \
	XDG_CONFIG_HOME=$(BENCH_BUILD)/config GOENV=off GOTOOLCHAIN=local GOWORK=off
bench-build:
	mkdir -p $(BENCH_BUILD)/tmp
	cd bench && $(BENCH_ENV) sh -c '$(GO) build ./... && $(GO) vet ./...'

# bench/'s own tests, in the same environment. TestSmoke builds xquecd
# from this checkout and drives all six workloads through it at smoke
# size — partitioned_mix's shards.xqcs included — so it is the one test
# that runs the serving path end to end (≈ 20 s warm, ≈ 47 s from a cold
# cache).
bench-e2e: bench-build
	cd bench && $(BENCH_ENV) sh -c '$(GO) test ./...'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Size of the thing, tracked next to ns/op (ROADMAP): non-test Go lines
# under internal/ and in the root package, the production lines — the
# non-test lines of the non-standard packages the two binaries and package
# xquec build from (`go list -deps`), which the test-only packages
# (galaxlike, xgrind, xmill, xpress, datagen, xmarkq, vm) must stay out
# of, so `check` fails when one enters that import graph — the
# exported-symbol count of
# package xquec, the exported funcs, methods and types of the internal/
# packages (their `go doc -all` entries), the user-settable values (not
# gated) — command-line flags of xquec and xquecd, exported fields of
# xquec.Options, xquec.QueryOptions and server.Config, and the optional
# per-request overrides of server.QueryRequest — the number of xquecd_
# metric families /metrics exports (each name is one string literal in
# internal/server), and the environment reads in non-test internal/
# code, which must be none, so `check` fails on the first one: behaviour
# is chosen by options, never by the environment of the process.
FLAG_DEFS = '\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var|[A-Z][a-z0-9]*Var)\('
PROD = ./cmd/xquec ./cmd/xquecd .
TEST_ONLY = '^xquec/internal/(baselines/(galaxlike|xgrind|xmill|xpress)|datagen|xmarkq|vm)$$'
loc:
	@files=$$($(GO) list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' $(PROD)); \
	echo "internal/ non-test Go lines: $$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" \
		"(production: $$(cat $$files | wc -l), $$(ls $$files | grep /internal/ | xargs cat | wc -l) of them under internal/)"
	@echo "root package non-test Go lines: $$(ls *.go | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@bad=$$($(GO) list -deps $(PROD) | grep -E $(TEST_ONLY)); \
	test -z "$$bad" || { echo "loc: test-only packages in the production import graph:" $$bad; exit 1; }
	@echo "package xquec exported symbols: $$($(GO) doc -short . | wc -l)"
	@n=0; for p in $$($(GO) list ./internal/...); do n=$$((n + $$($(GO) doc -all $$p 2>/dev/null | grep -cE '^(func|type) '))); done; \
	echo "internal/ exported funcs, methods and types: $$n"
	@f=$$(ls cmd/xquec/*.go cmd/xquecd/*.go | grep -v '_test\.go$$' | xargs cat | grep -cE $(FLAG_DEFS)); \
	o=$$($(GO) doc . Options | grep -c '^	[A-Z]'); \
	q=$$($(GO) doc . QueryOptions | grep -c '^	[A-Z]'); \
	c=$$($(GO) doc ./internal/server Config | grep -c '^	[A-Z]'); \
	r=$$($(GO) doc ./internal/server QueryRequest | grep -c omitempty); \
	echo "user-settable values: $$((f + o + q + c + r)) ($$f flags, $$o Options, $$q QueryOptions, $$c server.Config, $$r request overrides)"
	@echo "xquecd metric families: $$(ls internal/server/*.go | grep -v '_test\.go$$' | xargs grep -ho '"xquecd_[a-z_]*"' | sort -u | wc -l)"
	@n=$$(find internal -name '*.go' ! -name '*_test.go' | xargs grep -o 'os\.Getenv(' | wc -l); \
	echo "internal/ non-test os.Getenv calls: $$n"; \
	test $$n -eq 0 || { echo "loc: non-test code under internal/ calls os.Getenv"; exit 1; }

# Serving-throughput baseline (recorded in EXPERIMENTS.md).
bench-serve:
	$(GO) test ./internal/server/ -run xxx -bench BenchmarkServerQuery -benchtime 2s

# One iteration of each in-process benchmark an issue's criterion cites,
# for `make check`: proves they still compile and run, records nothing.
# BenchmarkSuccinct* (structure density, operators, queries);
# BenchmarkXMarkMix (bench/'s xmark_mix queries, plans cached);
# BenchmarkFuse (one fusion of each layout next to the re-ingest it
# replaced); BenchmarkStreamLarge (bench/'s five stream_large requests at
# scale 8, Next + AppendXML into one buffer); BenchmarkPointLookup
# (bench/'s two point_literal texts for the first, middle and last person
# and item at scale 8 — TestPointLookupFlat is the gate, this is the
# number); BenchmarkCompressXMark (one storage.Load of the scale-1
# document at each worker count); BenchmarkStoreText (immediate-text
# lookups at scale 8, through a run's cursor and cold, sole-text and
# walked); BenchmarkCompact (one Writer.Compact of a scale-2 base and
# four fragments, from the fused store); BenchmarkOpen (xquec.Open of a
# saved scale-2 and scale-8 repository — the in-process twin of
# cold_ingest_open's pool-miss latency).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSuccinct|BenchmarkXMarkMix|BenchmarkFuse|BenchmarkStreamLarge|BenchmarkPointLookup|BenchmarkCompressXMark|BenchmarkStoreText|BenchmarkCompact$$|BenchmarkOpen' -benchtime 1x . >/dev/null

# Short fuzzing pass over the codec fuzz targets (roundtrip, order
# preservation, decode-vs-reference, ALM's code automaton against decode
# plus bytes.Contains/HasSuffix), the succinct kernels — rank/select
# against naive counts (FuzzBitvectorRankSelect), the forward FindClose
# and the excess against a stack oracle on deep, flat and comb shapes
# (FuzzBPNavigation), the select scanner behind the text cursor against
# Select1 in any order (FuzzSelectScannerSeek) and the bulk sweeps
# against the record oracle (FuzzBulkNavigation) — the
# repository loader (hostile bytes behind a repaired checksum; its
# minimizing is capped at 2 s, or a found input's minimization takes the
# whole 5 s and the target runs a dozen inputs), the
# model loaders — ALM's (what it accepts must build on first use) and
# Huffman's and Hu-Tucker's (what they accept must round-trip any value
# as the bit-at-a-time reference code does) — the XML
# scanner under the ingest loader (hostile documents), the output
# escapers' word skip against a byte-at-a-time oracle (FuzzEscape) and
# the LZSS coder — round trip, and hostile bytes against the
# byte-at-a-time decoder (FuzzLZSS). Not part of
# tier-1 `check`; the targets' seed corpora still run under plain
# `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzHuffmanRoundtrip -fuzztime 5s ./internal/compress/huffman/
	$(GO) test -run '^$$' -fuzz FuzzHuffmanDecodeGarbage -fuzztime 5s ./internal/compress/huffman/
	$(GO) test -run '^$$' -fuzz FuzzHuTuckerRoundtrip -fuzztime 5s ./internal/compress/hutucker/
	$(GO) test -run '^$$' -fuzz FuzzHuTuckerDecodeGarbage -fuzztime 5s ./internal/compress/hutucker/
	$(GO) test -run '^$$' -fuzz FuzzALMRoundtrip -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzALMOrder -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzALMDecodeGarbage -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzALMMatch -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime 5s ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzBitvectorRankSelect -fuzztime 5s ./internal/succinct/
	$(GO) test -run '^$$' -fuzz FuzzBPNavigation -fuzztime 5s ./internal/succinct/
	$(GO) test -run '^$$' -fuzz FuzzSelectScannerSeek -fuzztime 5s ./internal/succinct/
	$(GO) test -run '^$$' -fuzz FuzzBulkNavigation -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzLoadBinary -fuzztime 5s -fuzzminimizetime 2s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzALMLoadModel -fuzztime 5s ./internal/compress/alm/
	$(GO) test -run '^$$' -fuzz FuzzHuffmanLoadModel -fuzztime 5s ./internal/compress/huffman/
	$(GO) test -run '^$$' -fuzz FuzzHuTuckerLoadModel -fuzztime 5s ./internal/compress/hutucker/
	$(GO) test -run '^$$' -fuzz FuzzSAX -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzEscape -fuzztime 5s ./internal/xmlparser/
	$(GO) test -run '^$$' -fuzz FuzzLZSS -fuzztime 5s ./internal/compress/blob/

# The paper's eight artifacts (paper_test.go) at the paper's sizes, once
# each, rows logged; EXPERIMENTS.md records them. Takes minutes: Figure 7
# runs the Galax-like baseline on XMark11. `go test .` runs the same eight
# at quick sizes in TestPaperQuick.
PAPER_BENCH = 'Benchmark(Table1Datasets|ValueShare|Figure6LeftCompressionFactors|Figure6RightXMarkCF|Section22StorageFootprint|Section33PartitioningExample|Figure4Q14Access|Figure7QueryTimes)$$'
bench-paper:
	$(GO) test -run '^$$' -bench $(PAPER_BENCH) -benchtime 1x -timeout 60m -v .

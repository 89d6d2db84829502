# Tier-1 gate plus convenience targets. `make check` is what CI (and
# every PR) must keep green.

GO ?= go

.PHONY: check build test race vet vet-unsafeptr bench-build loc bench-serve bench bench-query bench-par bench-codec bench-vm bench-succinct bench-smoke bench-diff bench-paper fuzz-smoke

# Measurement is not part of the gate: bench/ (BENCHMARK.json) owns it,
# and the `bench` target below appends to tracked BENCH_*.json files.
check: vet vet-unsafeptr build bench-build race bench-smoke ## tier-1: vet + build + race-clean tests + bench smoke

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
bench-build:
	mkdir -p $(BENCH_BUILD)/tmp
	cd bench && GOCACHE=$(BENCH_BUILD)/gocache GOTMPDIR=$(BENCH_BUILD)/tmp GOPATH=$(BENCH_BUILD)/gopath \
		XDG_CONFIG_HOME=$(BENCH_BUILD)/config GOENV=off GOTOOLCHAIN=local GOWORK=off \
		sh -c '$(GO) build ./... && $(GO) vet ./...'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Size of the thing, tracked next to ns/op (ROADMAP): non-test Go lines
# under internal/ and in the root package, the exported-symbol count of
# package xquec, and the environment reads left in non-test internal/
# code (the north star wants none).
loc:
	@echo "internal/ non-test Go lines: $$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "root package non-test Go lines: $$(ls *.go | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "package xquec exported symbols: $$($(GO) doc -short . | wc -l)"
	@echo "internal/ non-test os.Getenv calls: $$(find internal -name '*.go' ! -name '*_test.go' | xargs grep -o 'os\.Getenv(' | wc -l)"

# Serving-throughput baseline (recorded in EXPERIMENTS.md).
bench-serve:
	$(GO) test ./internal/server/ -run xxx -bench BenchmarkServerQuery -benchtime 2s

# Ingestion + decode + serving benchmarks with allocation counts; each
# run appends one JSON record to BENCH_ingest.json for cross-commit
# comparison.
bench: bench-query bench-par bench-codec bench-vm bench-succinct
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	($(GO) test -run '^$$' -bench 'BenchmarkCompressXMark|BenchmarkDecodeScratch' -benchmem . && \
	 $(GO) test -run '^$$' -bench BenchmarkServerQuery -benchmem ./internal/server/) \
	| /tmp/benchjson -o BENCH_ingest.json -label ingest+decode+serve

# Streaming result-path benchmark: time-to-first-item at 10×-apart
# cardinalities (must stay flat). Appends to BENCH_query.json.
bench-query:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkFirstResult' -benchmem . \
	| /tmp/benchjson -o BENCH_query.json -label query-streaming

# Intra-query parallelism benchmarks: the partitioned container scan
# and the multi-container predicate fan-out at worker budgets 1/2/4.
# Appends to BENCH_query_par.json. Speedups over p=1 require a
# multi-core host; see EXPERIMENTS.md for the calibration notes.
bench-par:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkParQuery' -benchmem . \
	| /tmp/benchjson -o BENCH_query_par.json -label query-parallel

# Codec kernel microbenchmarks: per-codec encode/decode MB/s over the
# XMark description container. Appends to BENCH_codec.json; the
# DecodeCost constants in internal/costmodel are derived from these
# records (see EXPERIMENTS.md).
bench-codec:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkCodec(Encode|Decode)' -benchmem . \
	| /tmp/benchjson -o BENCH_codec.json -label codec-kernels

# Succinct-structure benchmarks: structure density (bits per tree
# node) and resident bytes, Descendants/Parent operator throughput, and
# end-to-end query latency. Appends to BENCH_succinct.json.
bench-succinct:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkSuccinct' -benchmem . \
	| /tmp/benchjson -o BENCH_succinct.json -label succinct-structure

# One iteration of each in-process benchmark an issue's criterion cites,
# for `make check`: proves they still compile and run, records nothing.
# BenchmarkSuccinct* (structure density, operators, queries);
# BenchmarkFuse (one fusion of each layout next to the re-ingest it
# replaced); BenchmarkStreamLarge (bench/'s five stream_large requests at
# scale 8, Next + AppendXML into one buffer); BenchmarkPointLookup
# (bench/'s two point_literal texts for the first, middle and last person
# and item at scale 8 — TestPointLookupFlat is the gate, this is the
# number); BenchmarkCompressXMark (one storage.Load of the scale-1
# document at each worker count).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSuccinct|BenchmarkFuse|BenchmarkStreamLarge|BenchmarkPointLookup|BenchmarkCompressXMark' -benchtime 1x . >/dev/null

# Compiled-plan engine benchmarks: the same streaming/predicate
# workloads on the stack VM vs the tree-walking oracle (per-item
# dispatch cost, first-item latency, allocs). Appends to BENCH_vm.json;
# the before/after record lives in EXPERIMENTS.md.
bench-vm:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkVM(Stream|FirstResult|Predicate)' -benchmem . \
	| /tmp/benchjson -o BENCH_vm.json -label vm-dispatch

# Compare the latest two records of every benchmark log (`make bench`
# appends a fresh record per log), benchmark by benchmark. bench-diff
# fails on regressions past the threshold; single-run noise on a shared
# machine is well above a real gate threshold, so it gates nothing.
BENCH_DIFF_THRESHOLD ?= 10
bench-diff:
	@$(GO) build -o /tmp/benchjson ./cmd/benchjson
	@fail=0; for f in BENCH_*.json; do \
		echo "== $$f"; \
		/tmp/benchjson -diff -threshold $(BENCH_DIFF_THRESHOLD) $$f $$f || fail=1; \
	done; exit $$fail

# Short fuzzing pass over the codec fuzz targets (roundtrip, order
# preservation, decode-vs-reference), the navigation kernels, the
# repository loader (hostile bytes behind a repaired checksum) and the
# XML scanner under the ingest loader (hostile documents). Not part of
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
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime 5s ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzBitvectorRankSelect -fuzztime 5s ./internal/succinct/
	$(GO) test -run '^$$' -fuzz FuzzBPNavigation -fuzztime 5s ./internal/succinct/
	$(GO) test -run '^$$' -fuzz FuzzBulkNavigation -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzLoadBinary -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzSAX -fuzztime 5s ./internal/storage/

# Full paper benchmark suite (scaled-down in-test versions).
bench-paper:
	$(GO) test -bench . -benchtime 1x .

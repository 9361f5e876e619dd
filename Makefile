GO ?= go

# The engine packages the race gate covers: the goroutine-per-PE fabric, the
# sharded flat engine, the vector ISA they both execute, the shared
# shard-pool execution layer, the partitioned unstructured engine built on
# it, the Krylov solvers that drive the partitioned implicit path, the
# structured front end whose dataflow
# operator owns a compiled engine, the resident-engine serving layer that
# multiplexes concurrent requests over those solvers, the open-loop
# load generator that fires concurrent shot goroutines at it, and the
# fault-injection package whose chaos suite hammers the serving layer's
# failure domains (panic recovery, deadlines, forced drains) concurrently,
# and the wave extension, whose goroutine-per-PE fabric engine writes shared
# result slices.
RACE_PKGS = ./internal/core/ ./internal/fabric/ ./internal/dsd/ ./internal/exec/ ./internal/umesh/ ./internal/solver/ ./internal/sim/ ./internal/serve/ ./internal/loadgen/ ./internal/faultinject/ ./internal/wave/

.PHONY: build cross-arm64 test test-v3 race size layers bce bench-selftest bench-layout ab ab-all bench-smoke bench-kernel bench-umesh bench-usolve chaos-smoke fuzz-smoke cover docs-check vet fmt-check ci

build:
	$(GO) build ./...

# Cross-compile for arm64, where Go may contract x*y + z into a fused
# multiply-add: the structured engines forbid that with explicit float32(...)
# / float64(...) roundings, so their residual bits hold on any GOARCH. There
# is no arm64 hardware here, so the assembly is the test: the build fails
# when internal/dsd or internal/core, or one of the functions that produce
# the engines' inputs (the pressure perturbation, the linearized-density
# constants), compiles to a fused multiply-add or -subtract. (FNMULD, a
# negated product, rounds once and is fine.)
FMA_FUNCS = mesh\.Perturb(Pressure|Delta|Column)32|physics\.(\(\*Fluid\)|Fluid)\.(LinearCoefficients|Constants32)
cross-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/dsd/ ./internal/core/
	@set -e; \
	asm() { GOARCH=arm64 $(GO) build -gcflags=-S "$$1" 2>&1 | awk -v funcs="$$2" \
	  '/ STEXT /{fn=$$1} /\tFN?M(ADD|SUB)[SD]\t/ && fn ~ funcs {print fn ": " $$0; bad=1} / STEXT /{seen=1} END{if(!seen){print "no assembly listed"; exit 2}; exit bad}'; }; \
	for pkg in ./internal/dsd/ ./internal/core/; do \
	  asm $$pkg '.' || { echo "cross-arm64: $$pkg contracts a product into a fused multiply-add on arm64 (or listed nothing)"; exit 1; }; \
	done; \
	for pkg in ./internal/mesh/ ./internal/physics/; do \
	  asm $$pkg '$(FMA_FUNCS)' || { echo "cross-arm64: an engine-input function of $$pkg contracts into a fused multiply-add on arm64 (or listed nothing)"; exit 1; }; \
	done; \
	echo "cross-arm64: no FMADD/FMSUB/FNMADD/FNMSUB in internal/dsd, internal/core, mesh.Perturb*32, physics LinearCoefficients/Constants32"

test:
	$(GO) test ./...

# The packages whose tests pin float bits — iteration counts, a pressure
# hash, residual equalities — once more at GOAMD64=v3, where the compiler may
# use FMA3: go1.24 fuses none of their float64 or float32 kernels there, so
# amd64 has one answer, and this leg fails the day that stops being true
# (ROADMAP item 11 has the arm64 half of the question).
test-v3:
	GOAMD64=v3 $(GO) test ./internal/umesh/ ./internal/serve/ ./internal/solver/ ./internal/core/ ./internal/dsd/

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Size ratchet: non-test lines (comments included — what a reader has to get
# through) per package, and a ceiling on each of:
#   SIZE_CEILING    internal/solver + internal/umesh + internal/sim, assembly
#                   included: the implicit path, counted as one sum so code
#                   moved among the three counts once;
#   SERVE_CEILING   internal/serve, the serving core;
#   BENCH_CEILING   internal/bench, the paper's tables, Fig. 8 and the
#                   ablations, and nothing that times this host;
#   STRUCT_CEILING  internal/dsd + internal/core, the structured kernel and
#                   its engines, assembly included;
#   FABRIC_CEILING  internal/fabric, the wavelet fabric under them;
#   MODULE_CEILING  the whole module: every non-test .go and .s line outside
#                   benchmark/.
# A PR that shrinks what a ceiling covers lowers it to the new sum. A PR that
# must raise one says in CHANGES.md by how much and what the lines buy;
# CHANGES.md keeps each ceiling's history.
SIZE_CEILING = 4385
SERVE_CEILING = 1825
BENCH_CEILING = 863
STRUCT_CEILING = 1852
FABRIC_CEILING = 724
MODULE_CEILING = 15122
size:
	@set -e; \
	for d in $$($(GO) list -f '{{.Dir}}' ./... | sed "s|^$$PWD/*||; s|^$$|.|"); do \
	  n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	  printf '%6d  %s\n' $$n $$d; \
	done | sort -k2; \
	pair=$$(ls internal/solver/*.go internal/umesh/*.go internal/umesh/*.s internal/sim/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/solver + internal/umesh + internal/sim = $$pair non-test lines, assembly included (ceiling $(SIZE_CEILING))"; \
	if [ $$pair -gt $(SIZE_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi; \
	serve=$$(ls internal/serve/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/serve = $$serve non-test lines (ceiling $(SERVE_CEILING))"; \
	if [ $$serve -gt $(SERVE_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi; \
	bench=$$(ls internal/bench/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/bench = $$bench non-test lines (ceiling $(BENCH_CEILING))"; \
	if [ $$bench -gt $(BENCH_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi; \
	structured=$$(ls internal/dsd/*.go internal/dsd/*.s internal/core/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/dsd + internal/core = $$structured non-test lines, assembly included (ceiling $(STRUCT_CEILING))"; \
	if [ $$structured -gt $(STRUCT_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi; \
	fab=$$(ls internal/fabric/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/fabric = $$fab non-test lines (ceiling $(FABRIC_CEILING))"; \
	if [ $$fab -gt $(FABRIC_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi; \
	module=$$(find . \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \) -prune -o \
	  \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print | xargs cat | wc -l); \
	echo "size: module = $$module non-test lines outside benchmark/, assembly included (ceiling $(MODULE_CEILING))"; \
	if [ $$module -gt $(MODULE_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi

# Layering: internal/solver is the Krylov layer and nothing else — operators
# live with the meshes they apply (umesh, sim) — so it may import no other
# package of this module.
layers:
	@deps=$$($(GO) list -deps ./internal/solver/ | grep '^repro/internal/' | grep -vx 'repro/internal/solver' || true); \
	if [ -n "$$deps" ]; then echo "layers: internal/solver imports module packages:"; echo "$$deps"; exit 1; fi; \
	echo "layers: internal/solver imports no repro/internal/ package"

# Bounds-check ratchet on the per-iteration kernels. The compiler's check_bce
# pass reports every bounds check it could not remove, and the count per
# kernel file is pinned: a site added inside an element loop raises it and
# fails here; lower a pin when a PR removes one.
#   - internal/umesh/kernels.go holds the row sweep and every shard kernel,
#     each written so its element loop indexes equal-length windows and
#     carries no check. What is left: the neighbor gathers (x[li] of a packed
#     row ×4, of a general face ×1, and a general row's CSR slice and
#     fused-dot operand), and per run, per block or per call one reslice per
#     operand stream plus the block-table and resident-vector lookups
#     (137 sites until the five BiCGStab-only shard kernels were deleted;
#     100 until an application became one sweep beside one block dot; 96
#     until the packed rows became blocks of four whose whole blocks the
#     vector body sweeps: the Go loop's rows now start where it stopped).
#   - internal/dsd/ops.go is the structured kernel. Every op has one element
#     loop, over columns resliced to the destination's length, and none
#     reports a check (FluxFace and FluxCell stream the inlined fluxElem over
#     the tail their vector bodies leave); the pinned sites are per call or
#     per face: one reslice per source column or wire half, FluxCell's tail
#     clear, and the tally slot (106 sites while strided loops computed three
#     addresses per element and the single-op loops checked their second
#     operand; 33 with FluxFaceAcc; 32 until the single-instruction ops, whose
#     reslices were half the sites, moved into the oracle's test file). The
#     flat engine reads its neighbors' columns off the wire inside FluxCell —
#     there is no FMOV copy on its path to keep check-free, only the fabric
#     engine's receive.
#   - internal/core/hostload.go is the tile-ordered host loader: its element
#     loop keeps exactly one check (the column view's [z]; the mesh line is
#     resliced per plane), the rest is per tile or per PE.
# The structured kernel's single spelling must also stay inlinable into the
# two macro-ops' tail loops, or each element pays a call. Its vector body
# (internal/dsd/*.s) and the packed rows' (internal/umesh/*.s) must round
# every product before its sum as their Go spellings do, so a fused
# multiply-add mnemonic there fails the gate.
BCE_PINS = internal/umesh:kernels.go:95 internal/dsd:ops.go:16 internal/core:hostload.go:20
bce:
	@set -e; \
	for pin in $(BCE_PINS); do \
	  pkg=$${pin%%:*}; rest=$${pin#*:}; file=$${rest%%:*}; want=$${rest#*:}; \
	  n=$$($(GO) build -gcflags=-d=ssa/check_bce ./$$pkg/ 2>&1 | grep -c "$$file.*Found Is\(Slice\)\{0,1\}InBounds" || true); \
	  echo "bce: $$pkg/$$file reports $$n bounds-check sites (pinned $$want)"; \
	  if [ $$n -eq 0 ]; then echo "bce: nothing reported — the package did not build with check_bce"; exit 1; fi; \
	  if [ $$n -gt $$want ]; then \
	    echo "bce: a bounds check came back into a kernel; list them with"; \
	    echo "  go build -gcflags=-d=ssa/check_bce ./$$pkg/ 2>&1 | grep $$file"; exit 1; \
	  fi; \
	done; \
	$(GO) build -gcflags=-m ./internal/dsd/ 2>&1 | grep -q 'can inline fluxElem' || \
	  { echo "bce: dsd.fluxElem is over the inlining budget — FluxFace and FluxCell would call it per element"; exit 1; }; \
	echo "bce: dsd.fluxElem inlines"; \
	if grep -nE 'VFN?M(ADD|SUB)' internal/dsd/*.s internal/umesh/*.s; then \
	  echo "bce: a vector body fuses a multiply and an add, which its Go spelling never does"; exit 1; fi; \
	echo "bce: no VFMADD/VFNMADD/VFMSUB/VFNMSUB in internal/dsd/*.s or internal/umesh/*.s"

# The repository benchmark (benchmark/, BENCHMARK.json) is its own module, so
# the root `go build/vet/test ./...` never see it. It drives the stack through
# the massivefv facade; vetting and testing it here is what catches an
# internal rename that breaks that facade before the benchmark pipeline does.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Yardstick layout: builds the benchmark binary exactly as benchmark/run.sh
# does (its environment, its output path) and prints where the yardstick's
# timed loop, main.(*yardstick).run, sits mod 64. Functions are 32-byte
# aligned, so any size change in a package linked before main moves it by
# 32; at 0 mod 64 it has read 8–14 % faster than at 32, which shifts every
# normalised metric of that build. Compare two builds' normalised numbers
# only when both print the same offset.
bench-layout:
	@set -e; build=$$PWD/.bench_build; mkdir -p $$build; \
	( cd benchmark && HOME=$$build/home GOCACHE=$$build/gocache GOPATH=$$build/gopath \
	  GOFLAGS= GOWORK=off GOTOOLCHAIN=local $(GO) build -o $$build/fvbench . ); \
	addr=$$($(GO) tool nm $$build/fvbench | awk '$$3 == "main.(*yardstick).run" {print $$1}'); \
	[ -n "$$addr" ] || { echo "bench-layout: no main.(*yardstick).run in the benchmark binary"; exit 1; }; \
	echo "bench-layout: main.(*yardstick).run at 0x$$addr, $$((0x$$addr % 64)) mod 64"

# The claim protocol as one command (cmd/fvab): builds the benchmark from
# BASE (a git worktree under .bench_build/ab) and from the working
# tree with run.sh's environment, prints both builds' yardstick offsets and
# stops with exit status 2 when they differ, then runs N alternating pairs of
# workload W (seeds 1…N, the first side alternating) and prints, per
# end-to-end metric, both medians and quartiles, the k-of-N wins and the
# verdict against BENCHMARK.json's bound; it exits 1 on a regression beyond a
# bound or a larger share of failed operations. ab-all does the same for
# every BENCHMARK.json workload in file order on the one pair of builds,
# one verdict table per workload, and exits 1 if any regressed. Not part of
# ci: a pair takes ~50 s, so ab-all at N=10 takes about half an hour.
N ?= 10
ab:
	@[ -n "$(BASE)" ] && [ -n "$(W)" ] || { echo "usage: make ab BASE=<rev> W=<workload> [N=10]"; exit 2; }
	$(GO) run ./cmd/fvab -base $(BASE) -workload $(W) -n $(N)

ab-all:
	@[ -n "$(BASE)" ] || { echo "usage: make ab-all BASE=<rev> [N=10]"; exit 2; }
	$(GO) run ./cmd/fvab -base $(BASE) -workload all -n $(N)

# Exercise every benchmark once at reduced size — validates the harness
# without paying full measurement cost (what CI runs). -run '^$$' skips the
# unit tests, which the test target already covers.
bench-smoke:
	@echo "bench-smoke: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# The structured-kernel microbenchmarks (dsd ops, the whole-PE FluxCell and
# the fused FluxFace against their op-by-op sequence, faceFlux, exchange,
# whole engine, the engine's compile / load-pressure / apply / gather stages,
# the wavelet fabric engine, and a dataflow-operator CG solve beside one bare
# application) once each —
# CI's guarantee that they keep compiling and running. Drop -benchtime/-short
# for a real measurement.
bench-kernel:
	@echo "bench-kernel: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchtime 1x -short ./internal/dsd/ ./internal/core/ ./internal/sim/

# The partitioned unstructured engine microbenchmarks (engine step vs serial
# sweep) once each — CI's guarantee that they keep compiling and running.
bench-umesh:
	@echo "bench-umesh: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench BenchmarkUmesh -benchtime 1x -short ./internal/umesh/

# The part-resident implicit-solve microbenchmarks (resident operator
# application and fused reductions vs the serial host apply, one whole
# partitioned step, a transient solve per preconditioner-ladder rung —
# BenchmarkUsolvePrecond/{jacobi,chebyshev,amg} — and the per-stage
# sizings of one Jacobi-CG iteration, BenchmarkUsolveJacobiStage/{push,
# apply,dot,cgstep,xpby} — the halo push, the row sweep with its fused dot,
# the set-up dot, the fused CG tail, the direction update — and of one AMG
# iteration, BenchmarkUsolveAMGStage, and the three stages of a set-up,
# BenchmarkUsolveSetup/{mesh,rcb,compile}) once each — CI's guarantee that they keep
# compiling and running.
bench-usolve:
	@echo "bench-usolve: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench 'BenchmarkPartOperator|BenchmarkUsolve' -benchtime 1x -short ./internal/umesh/

# The chaos suite under the race detector: a live serving stack through a
# seeded plan of engine panics, stalls and forced breakdowns, asserting
# ≥ 99% availability for the non-faulted requests, bit-identical hashes on
# every success, and a healthy daemon at the end.
chaos-smoke:
	$(GO) test -race -run TestChaos -count=1 ./internal/faultinject/

# Short native-fuzz exploration of the RCB partitioner and canonical order
# (held to the sort-per-level oracle, on coarse-grid inputs too), the radial mesh
# builder, the part operator's row store (and its packed rows' vector body
# against their Go spelling), the serving layer's request
# decoder and the whole-PE flux macro-op FluxCell (the seed corpora
# already run under plain `make test`). -fuzz accepts one target per
# invocation, hence five runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPartition$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzRadialMesh$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzRowStore$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzFluxCell$$' -fuzztime 10s ./internal/dsd/

# Per-package coverage gate over the solver-path packages. Floors are pinned
# a few points under the measured numbers so genuine regressions fail while
# rounding noise does not. Current coverage (2026-08, PR 10; umesh and solver
# re-measured and re-pinned 2026-10, PR 16, after the slice recurrences and
# the serial rung twins were deleted and both statement counts shrank again;
# serve re-measured and re-pinned at PR 17, once the dispatcher was gone and
# the model test drove every stage of the core; serve re-measured at PR 34,
# once the scheduler's cost model and the brownout were gone):
#   internal/umesh  95.7%   internal/solver 94.2%   internal/exec 95.8%
#   internal/serve  96.0%   internal/loadgen 97.3%  internal/faultinject 86.8%
cover:
	@set -e; \
	check() { \
	  pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	  if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
	  echo "$$1: $$pct% (floor $$2%)"; \
	  if awk "BEGIN{exit !($$pct < $$2)}"; then \
	    echo "cover: $$1 coverage $$pct% fell below the pinned floor $$2%"; exit 1; \
	  fi; \
	}; \
	check ./internal/umesh/ 92; \
	check ./internal/solver/ 91; \
	check ./internal/exec/ 95; \
	check ./internal/serve/ 92; \
	check ./internal/loadgen/ 92; \
	check ./internal/faultinject/ 82

# Docs gate: the godoc Example functions (solver.CompileCG,
# umesh.RunTransientPartitioned, massivefv's SolveUnstructured, RunDataflow,
# RunGPU and SimulateWave — the last three on amd64 only) execute with
# output verification, the architecture and
# benchmark documents exist, the README links them, every relative markdown
# cross-link in the top-level docs resolves to a real file, every *.md file a
# .go file (outside .bench_build/) or this Makefile names exists — at the
# module root or beside the naming file — and no source,
# Makefile or current document names a root-level BENCH_<name>.json record:
# those are gone, wall-clock is recorded through benchmark/ (CHANGES.md and
# ROADMAP.md keep the history; benchmark/ is a frozen yardstick).
docs-check:
	$(GO) test -run Example -count=1 ./internal/solver/ ./internal/umesh/ ./massivefv/
	@set -e; \
	for f in ARCHITECTURE.md docs/benchmarks.md; do \
	  [ -f "$$f" ] || { echo "docs-check: $$f is missing"; exit 1; }; \
	done; \
	grep -q 'ARCHITECTURE.md' README.md || { echo "docs-check: README.md does not link ARCHITECTURE.md"; exit 1; }; \
	grep -q 'docs/benchmarks.md' README.md || { echo "docs-check: README.md does not link docs/benchmarks.md"; exit 1; }; \
	for doc in README.md ARCHITECTURE.md ROADMAP.md docs/benchmarks.md; do \
	  dir=$$(dirname "$$doc"); \
	  for ref in $$(grep -oE '\]\([^)#]+\.md\)' "$$doc" | sed 's/^](//; s/)$$//'); do \
	    case "$$ref" in http*) continue;; esac; \
	    [ -f "$$dir/$$ref" ] || { echo "docs-check: $$doc links $$ref, which does not exist"; exit 1; }; \
	  done; \
	done; \
	for hit in $$(grep -roHE --include='*.go' --exclude-dir=.bench_build '[A-Za-z0-9_./-]+\.md\b' .; \
	  grep -oHE '[A-Za-z0-9_./-]+\.md\b' Makefile); do \
	  file=$${hit%%:*}; ref=$${hit#*:}; \
	  [ -f "$$ref" ] || [ -f "$$(dirname "$$file")/$$ref" ] || \
	    { echo "docs-check: $$file names $$ref, which does not exist"; exit 1; }; \
	done; \
	stale=$$({ grep -rnE 'BENCH_[a-z]+\.json' --include='*.go' --exclude-dir=benchmark .; \
	  grep -rnE 'BENCH_[a-z]+\.json' Makefile README.md ARCHITECTURE.md docs; } || true); \
	if [ -n "$$stale" ]; then echo "docs-check: a deleted BENCH_<name>.json record is still cited:"; echo "$$stale"; exit 1; fi; \
	echo "docs-check: examples ran, cross-links and *.md citations resolve, no BENCH_<name>.json citation"

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Everything the CI workflow gates on.
ci: build cross-arm64 vet fmt-check size layers bce test test-v3 bench-selftest race cover docs-check bench-smoke bench-kernel bench-umesh bench-usolve chaos-smoke fuzz-smoke

GO ?= go

# The engine packages the race gate covers: the goroutine-per-PE fabric, the
# serial flat engine, the sharded parallel flat engine, the vector ISA they
# all execute, the shared shard-pool execution layer, the partitioned
# unstructured engine built on it, the Krylov solvers that drive the
# partitioned implicit path, the resident-engine serving layer that
# multiplexes concurrent requests over those solvers, the open-loop
# load generator that fires concurrent shot goroutines at it, and the
# fault-injection package whose chaos suite hammers the serving layer's
# failure domains (panic recovery, deadlines, forced drains) concurrently,
# and the wave extension, whose goroutine-per-PE fabric engine writes shared
# result slices.
RACE_PKGS = ./internal/core/ ./internal/fabric/ ./internal/dsd/ ./internal/exec/ ./internal/umesh/ ./internal/solver/ ./internal/serve/ ./internal/loadgen/ ./internal/faultinject/ ./internal/wave/

.PHONY: build cross-arm64 test test-v3 race size bce bench-selftest bench-smoke bench-kernel bench-umesh bench-usolve chaos-smoke fuzz-smoke cover docs-check vet fmt-check ci

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
# (ROADMAP item 10 has the arm64 half of the question).
test-v3:
	GOAMD64=v3 $(GO) test ./internal/umesh/ ./internal/serve/ ./internal/solver/ ./internal/core/ ./internal/dsd/

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Size ratchet: non-test Go lines (comments included — what a reader has to
# get through) per package, and a ceiling on internal/solver + internal/umesh,
# the pair ROADMAP's "write each recurrence and each rung once" item tracks
# (5372 at PR 13, 4870 at PR 14, 4699 at PR 17, 4717 at PR 18 — the skyline
# coarse level's envelope set-up; 4861 at PR 19: three row sweeps became one
# and gave back 40 lines, but the packed row store they read — its two record
# types, the builder and the run compiler, with the comments that say who may
# read it — is 140 lines that did not exist, and the hoisted usePre loop is
# spelled twice; 4896 at PR 21: solver.DataflowOperator now owns a compiled
# core.Engine — compile on first Apply, load + apply + gather per call, Close,
# the oracle path on a shallow mesh copy — where it used to be one RunFlat
# call per Apply around a swap of m.Pressure: 35 lines of lifecycle that buy a
# 3× faster dataflow CG and a mesh nobody writes; 4776 at PR 23: both umesh
# runtimes on one compiled Layout, one generic pushHalo, one block-SSOR builder
# and sweep, one diagonal, no ComputeResidualPartitioned; 4533 at PR 24:
# BiCGStab, the five OpKinds only it emitted and the option that selected it
# are gone — CG is the Krylov method). Lower SIZE_CEILING
# when a PR shrinks the pair; a PR that must raise it says why. SERVE_CEILING does the same for
# internal/serve, the serving core ROADMAP's state-machine item tracks (2050
# at PR 16, 2044 at PR 17), and BENCH_CEILING for internal/bench, which holds
# the paper's tables, Fig. 8 and the ablations and nothing that times this
# host (2695 at PR 19 with the five wall-clock sweeps, 956 at PR 20 without).
SIZE_CEILING = 4533
SERVE_CEILING = 2044
BENCH_CEILING = 956
size:
	@set -e; \
	for d in $$($(GO) list -f '{{.Dir}}' ./... | sed "s|^$$PWD/*||; s|^$$|.|"); do \
	  n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	  printf '%6d  %s\n' $$n $$d; \
	done | sort -k2; \
	pair=$$(ls internal/solver/*.go internal/umesh/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/solver + internal/umesh = $$pair non-test lines (ceiling $(SIZE_CEILING))"; \
	if [ $$pair -gt $(SIZE_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi; \
	serve=$$(ls internal/serve/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/serve = $$serve non-test lines (ceiling $(SERVE_CEILING))"; \
	if [ $$serve -gt $(SERVE_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi; \
	bench=$$(ls internal/bench/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "size: internal/bench = $$bench non-test lines (ceiling $(BENCH_CEILING))"; \
	if [ $$bench -gt $(BENCH_CEILING) ]; then echo "size: over the ceiling"; exit 1; fi

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
#     (137 sites until PR 24 deleted the five BiCGStab-only shard kernels).
#   - internal/dsd/ops.go is the structured kernel. The element loops of
#     FluxFace, FluxFaceAcc (both through the inlined fluxElem), AccV and
#     MovRecv report nothing; the pinned sites are the per-call reslices, the
#     second operand of the older single-op fast loops, and the strided
#     fallback loops (three address computations per element by design).
#   - internal/core/hostload.go is the tile-ordered host loader: its element
#     loop keeps exactly one check (the column view's [z]; the mesh line is
#     resliced per plane), the rest is per tile or per PE.
# The structured kernel's single spelling must also stay inlinable into the
# two macro-op loops, or each element pays a call.
BCE_PINS = internal/umesh:kernels.go:100 internal/dsd:ops.go:106 internal/core:hostload.go:20
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
	  { echo "bce: dsd.fluxElem is over the inlining budget — FluxFace and FluxFaceAcc would call it per element"; exit 1; }; \
	echo "bce: dsd.fluxElem inlines"

# The repository benchmark (benchmark/, BENCHMARK.json) is its own module, so
# the root `go build/vet/test ./...` never see it. It drives the stack through
# the massivefv facade; vetting and testing it here is what catches an
# internal rename that breaks that facade before the benchmark pipeline does.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Exercise every benchmark once at reduced size — validates the harness
# without paying full measurement cost (what CI runs). -run '^$$' skips the
# unit tests, which the test target already covers.
bench-smoke:
	@echo "bench-smoke: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# The structured-kernel microbenchmarks (dsd ops, the fused FluxFace /
# FluxFaceAcc kernels against their op-by-op sequence, faceFlux, exchange,
# whole engine, the engine's compile / load-pressure / apply / gather stages,
# and a dataflow-operator CG solve beside one bare application) once each —
# CI's guarantee that they keep compiling and running. Drop -benchtime/-short
# for a real measurement.
bench-kernel:
	@echo "bench-kernel: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchtime 1x -short ./internal/dsd/ ./internal/core/ ./internal/solver/

# The partitioned unstructured engine microbenchmarks (engine step vs serial
# sweep) once each — CI's guarantee that they keep compiling and running.
bench-umesh:
	@echo "bench-umesh: GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}"
	$(GO) test -run '^$$' -bench BenchmarkUmesh -benchtime 1x -short ./internal/umesh/

# The part-resident implicit-solve microbenchmarks (resident operator
# application and fused reductions vs the serial host apply, one whole
# partitioned step, a transient solve per preconditioner-ladder rung —
# BenchmarkUsolvePrecond/{jacobi,ssor,chebyshev,amg} — and the per-stage
# sizings of one Jacobi-CG and one AMG iteration, BenchmarkUsolveJacobiStage
# and BenchmarkUsolveAMGStage) once each — CI's guarantee that they keep
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

# Short native-fuzz exploration of the RCB partitioner, the radial mesh
# builder, the part operator's row store, the serving layer's request
# decoder and the fused flux-and-accumulate macro-op (the seed corpora
# already run under plain `make test`). -fuzz accepts one target per
# invocation, hence five runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPartition$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzRadialMesh$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzRowStore$$' -fuzztime 10s ./internal/umesh/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzFluxFaceAcc$$' -fuzztime 10s ./internal/dsd/

# Per-package coverage gate over the solver-path packages. Floors are pinned
# a few points under the measured numbers so genuine regressions fail while
# rounding noise does not. Current coverage (2026-08, PR 10; umesh and solver
# re-measured and re-pinned 2026-10, PR 16, after the slice recurrences and
# the serial rung twins were deleted and both statement counts shrank again;
# serve re-measured and re-pinned at PR 17, once the dispatcher was gone and
# the model test drove every stage of the core):
#   internal/umesh  95.7%   internal/solver 94.2%   internal/exec 95.8%
#   internal/serve  95.9%   internal/loadgen 97.3%  internal/faultinject 86.8%
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

# Docs gate: the godoc Example functions (solver.CG, RunTransientPartitioned,
# SolveUnstructured) execute with output verification, the architecture and
# benchmark documents exist, the README links them, every relative markdown
# cross-link in the top-level docs resolves to a real file, and no source,
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
	stale=$$({ grep -rnE 'BENCH_[a-z]+\.json' --include='*.go' --exclude-dir=benchmark .; \
	  grep -rnE 'BENCH_[a-z]+\.json' Makefile README.md ARCHITECTURE.md docs; } || true); \
	if [ -n "$$stale" ]; then echo "docs-check: a deleted BENCH_<name>.json record is still cited:"; echo "$$stale"; exit 1; fi; \
	echo "docs-check: examples ran, cross-links resolve, no BENCH_<name>.json citation"

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Everything the CI workflow gates on.
ci: build cross-arm64 vet fmt-check size bce test test-v3 bench-selftest race cover docs-check bench-smoke bench-kernel bench-umesh bench-usolve chaos-smoke fuzz-smoke

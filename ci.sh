#!/bin/sh
# CI gate: gofmt, vet, build, full test suite, the suite again under the
# race detector, and the named behavioral gates. The race pass matters
# here — the pipelines, the job scheduler, and the multi-tenant serve
# plane all shard work across goroutines, and concurrent workflow
# executions share the DFS state, the history store, and the calibration
# — exactly the kind of state a race would corrupt silently (the
# concurrent-Execute stress tests only mean something under -race). The
# structural invariants the correctness story rests on are ordinary tests
# in that suite: TestGoroutinesStartInNamedPlaces (goroutines start only at
# named sites; the kernel packages read no clock, draw no random numbers
# and import no runtime), TestEverySpanEnds, TestEveryEngineHasAProfile,
# and the plan, trace and chaos goldens.
#
# Usage: ./ci.sh [build|test|gates]
#
# With no argument every group runs in sequence (the full local gate).
# Naming a group runs just that slice — the GitHub workflow fans the three
# groups out as parallel jobs sharing one module cache:
#   build — gofmt, go vet, go build
#   test  — go test, go test -race (both with timeout guards)
#   gates — the named behavioral gates below
#
# Named gates (each one a stage so a regression names itself):
#   golden trace      — the two-engine workflow's span tree is byte-stable
#   chaos golden      — a seeded fault plan yields a byte-stable trace of
#                       retries, checkpoints, recoveries and speculation,
#                       and of a driver loop's per-round pulls and re-fetches
#   alloc guard       — tracing off adds zero allocations to hot paths:
#                       a nil recorder's spans and a nil registry's
#                       counters, gauges and histograms are free no-ops
#   feasibility alloc guard — the partition search's per-candidate question,
#                       engines.(*Engine).Accepts, allocates nothing for a
#                       refused candidate on each paradigm or an accepted
#                       one: refusals are described only by ValidOps
#   loop semantics    — internal/ir alone defines a WHILE: the four
#                       iterative workloads' invariant body operators and
#                       kept relations are pinned by name; the one round
#                       stepper (ir.Op.Loop) stops on an empty condition,
#                       runs exactly its cap otherwise, rebinds in name
#                       order and fails typed when the cap runs out; the
#                       four workloads and a countdown compute the same
#                       relation and round count natively (naiad) and
#                       driver-looped (hadoop), and a capped countdown
#                       fails with the same error on both; and on the
#                       random DAG generator's WHILEs a body JOIN reuses
#                       round 1's table in round 2 exactly when ir calls
#                       its build side invariant
#   identity          — one key per operator: every identity-relevant field
#                       moves the mutated operator's key and the canonical
#                       hash, renaming and reordering move neither; a loop
#                       body keys apart per graph it binds to, a renamed,
#                       reordered resubmission plans from the first run's
#                       history, and a history file without a version is
#                       refused
#   agg scratch recycling — an aggregation table's key index, counts and
#                       sums recycle through exec's aggPool: the generator's
#                       DAGs, every AGG split into two halves, compute the
#                       same relations cell for cell (float bits included)
#                       on recycled scratch as on fresh, and a warm AGG
#                       allocates only its output rows and slabs; then both
#                       tests and TestRandomDAGsMatchOracle under -race at
#                       GOMAXPROCS=8, since concurrent halves release into
#                       one shared pool
#   telemetry scrape  — the debug server (httptest over DebugHandler)
#                       serves /metrics and /debug/runs during chaotic
#                       concurrent executions; any malformed exposition
#                       line or lost run digest fails the stage
#   flaky gate        — the concurrency/scheduler/chaos suites 3x back to
#                       back with -shuffle=on: a test that only fails
#                       sometimes, or only in one order, fails here
#   service smoke     — the serve plane end to end over httptest: a
#                       two-engine workflow as one tenant, a plan-cached
#                       resubmission as another, status polling, and
#                       tenant-isolation probes — plain and under -race
#   cli smoke         — the musketeer command in process: two runs sharing
#                       one -history file (the second plans from the first's
#                       calibration, no other file is written), stats
#                       -history alone, and check's exit statuses
#   benchmark gate    — TestKernelAllocationsHoldBaseline in exec,
#                       relation, bench and core runs every gated
#                       benchmark's body and fails on allocs/op or B/op
#                       past its BENCH_kernels.json entry by 25% (plus half
#                       an alloc, or 64 B), or on a body with no entry;
#                       TestEveryKernelBaselineIsGated fails on an entry no
#                       gate runs. ns/op is not compared — a baseline
#                       recorded on another day measures the host too, so
#                       time is judged end to end by mkperf pairs of parent
#                       and change
#   calibration gate  — TestAccuracyLearningConverges: the 3-round accuracy
#                       run over all four cases must still converge (round-3
#                       mean |makespan error| below round 1) and stay within
#                       25% (plus 2 points) of the committed
#                       BENCH_accuracy.json per-workflow errors
#   paper tables golden — TestPaperTablesGolden: every paper experiment,
#                       rendered in order, equals bench_results.txt byte
#                       for byte apart from fig13's wall-clock cells
#   codec fuzz        — FuzzColumnarStream (the untrusted columnar decoder
#                       over real encodings, cut and bit-flipped: an error
#                       or a stable relation, never a panic, never memory
#                       sized by a count the stream merely declares),
#                       FuzzDecodeBytes (the one text parser, over real
#                       renderings, cut and mutated: an error or a relation
#                       whose own text parses back to it, never a panic,
#                       never memory beyond the columnar decoder's bound),
#                       FuzzTextLen (a value's width is its text's length,
#                       with or without a width memo), FuzzKeyEquality
#                       (two cells' key encodings are equal exactly when
#                       their renderings are) and FuzzWriteRelation (the
#                       DFS stores what a relation's TSV reads back as, or
#                       refuses it where that text fails to read back),
#                       10 s each beyond their seeds
#   mkperf smoke      — mkperf -quick: every workload of the repo benchmark
#                       (batch, plan-only, open-loop serve) for 2 s each at
#                       host GOMAXPROCS; fails if any operation failed or
#                       any output differed from its plain-Go reference
#
# Every stage is timed; the summary prints per-stage wall seconds and the
# same numbers land in ci-stage-times-<group>.json for the workflow's
# artifact upload.
set -eu

cd "$(dirname "$0")"

GROUP="${1:-all}"
case "$GROUP" in
build | test | gates | all) ;;
*)
    echo "usage: ./ci.sh [build|test|gates]" >&2
    exit 2
    ;;
esac

STAGES=""
STAGE_JSON=""
stage() {
    name="$1"
    shift
    echo "== $name =="
    start=$(date +%s)
    "$@"
    secs=$(($(date +%s) - start))
    STAGES="$STAGES$(printf '%5ss  %s' "$secs" "$name")\n"
    if [ -n "$STAGE_JSON" ]; then
        STAGE_JSON="$STAGE_JSON,"
    fi
    STAGE_JSON="$STAGE_JSON{\"stage\":\"$name\",\"seconds\":$secs}"
}

gofmt_gate() {
    # gofmt -l prints the files it would rewrite and still exits 0.
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt: these files need gofmt -w:" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

agg_recycling_gate() {
    go test -count=1 -timeout 5m \
        -run '^(TestRecycledAggScratchMatchesFirstUse|TestAggScratchIsRecycled)$' ./internal/exec
    GOMAXPROCS=8 go test -race -count=1 -timeout 10m \
        -run '^(TestRecycledAggScratchMatchesFirstUse|TestAggScratchIsRecycled|TestRandomDAGsMatchOracle)$' ./internal/exec
}

fuzz_gate() {
    # go test -fuzz takes one target and one package per run.
    go test -run '^$' -fuzz '^FuzzColumnarStream$' -fuzztime 10s ./internal/relation
    go test -run '^$' -fuzz '^FuzzDecodeBytes$' -fuzztime 10s ./internal/relation
    go test -run '^$' -fuzz '^FuzzTextLen$' -fuzztime 10s ./internal/relation
    go test -run '^$' -fuzz '^FuzzKeyEquality$' -fuzztime 10s ./internal/relation
    go test -run '^$' -fuzz '^FuzzWriteRelation$' -fuzztime 10s ./internal/dfs
}

if [ "$GROUP" = all ] || [ "$GROUP" = build ]; then
    stage "gofmt" gofmt_gate
    stage "go vet" go vet ./...
    stage "go build" go build ./...
fi

if [ "$GROUP" = all ] || [ "$GROUP" = test ]; then
    stage "go test" go test -timeout 10m ./...
    stage "go test -race" go test -race -timeout 20m ./...
fi

if [ "$GROUP" = all ] || [ "$GROUP" = gates ]; then
    stage "golden trace" go test -count=1 -timeout 5m -run 'TestTraceGolden' .
    stage "chaos golden" go test -count=1 -timeout 5m -run 'TestChaos(Driver)?Golden' .
    stage "obs disabled-path alloc guard" go test -count=1 -timeout 5m -run 'TestDisabledPathAllocs' ./internal/obs
    stage "search feasibility alloc guard" go test -count=1 -timeout 5m -run '^TestSearchFeasibilityAllocatesNothing$' ./internal/engines
    stage "loop semantics" go test -count=1 -timeout 5m \
        -run '^(TestWorkloadLoopsInvariantAndKept|TestLoopDefinition|TestLoopSteps|TestWhileJoinReuseMatchesInvariance|TestRunnerWhileDriverOnHadoopMatchesNative)$' \
        ./internal/ir ./internal/exec ./internal/core
    stage "identity" go test -count=1 -timeout 5m \
        -run '^(TestIdentityMetamorphic|TestCanonical.*|TestLoopBodyHistoryStaysWithItsGraph|TestRenamedResubmissionReusesHistory|TestLoadHistoryRefusesUnversionedFile)$' \
        . ./internal/ir ./internal/core
    stage "agg scratch recycling" agg_recycling_gate
    stage "telemetry scrape gate" \
        go test -count=1 -timeout 5m -run 'TestDebugServerScrape|TestConcurrentScrapeDuringChaoticExecutes|TestPrometheusLinesValid|TestPrometheusByteStableAcrossScrapes' . ./internal/obs
    stage "flaky gate (3x shuffled concurrency/sched/chaos)" \
        go test -short -count=3 -shuffle=on -timeout 15m -run 'Concurrent|Sched|Chaos|Speculat|Fault|Recover' ./internal/sched ./internal/core ./internal/engines .
    stage "service smoke gate" go test -count=1 -timeout 5m -run 'TestServe' .
    stage "service smoke gate (-race)" go test -race -count=1 -timeout 10m -run 'TestServe' .
    stage "cli smoke" go test -count=1 -timeout 5m -run '^TestCLI' ./cmd/musketeer
    stage "benchmark regression gate" \
        go test -count=1 -timeout 10m -run '^(TestKernelAllocationsHoldBaseline|TestEveryKernelBaselineIsGated)$' \
        . ./internal/exec ./internal/relation ./internal/bench ./internal/core
    stage "calibration convergence gate" \
        go test -count=1 -timeout 5m -run '^TestAccuracyLearningConverges$' ./internal/bench
    stage "paper tables golden" \
        go test -count=1 -timeout 5m -run '^TestPaperTablesGolden$' ./internal/bench
    stage "codec fuzz" fuzz_gate
    stage "mkperf smoke" go run ./cmd/mkperf -quick -seconds 2
fi

printf '{"group":"%s","stages":[%s]}\n' "$GROUP" "$STAGE_JSON" > "ci-stage-times-$GROUP.json"
echo "== stage times ($GROUP) =="
printf "$STAGES"
echo "stage timings written to ci-stage-times-$GROUP.json"
echo "CI OK ($GROUP)"

# Build and verification entry points. `make check` is the gate a
# change must pass before merging: formatting, vet, a full build, the
# camelot-lint determinism suite, the entire test suite under the race
# detector, the memory and allocation pins under the older map layout
# (go1.24 or later), a short pass over the fault-injection torture suite, a
# bounded systematic chaos sweep for the commitment protocols, the
# Paxos Commit conformance gate, a short fuzz of every parser hostile
# or hand-written bytes reach, one iteration of every Go benchmark, and
# the benchmark module's own vet and self-tests.

GO ?= go

.PHONY: all build test check fmt vet lint race noswissmap torture crashstates chaos paxos fuzz benchsmoke perf perf-compare perf-pairs frozen golden bench cluster netem loadgen groupcommit

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# camelot-lint statically enforces the simulation-determinism and
# protocol-invariant rules (see DESIGN.md §8): no unordered map
# iteration, wall-clock reads, or raw goroutines in simulated code,
# no wal force without its trace event, plus the protocol-surface
# exhaustiveness suite — every wire.Kind and wal.RecType must be
# registered, handled, chaos-covered, and produced (or carry a
# justified //lint: directive). The whole suite shares one parse and
# type-check of the module.
lint:
	$(GO) run ./cmd/camelot-lint ./...

race:
	$(GO) test -race ./...

# The memory and allocation pins under the older bucket maps: the
# object table's compactness and churn tests and the server's flat
# transaction, core's resolved memory and the lock table's cost pins
# compare against, or hold, built-in maps, whose layout Go 1.24's
# swiss maps changed. GOEXPERIMENT=noswissmap brings the bucket maps
# back; a toolchain before go1.24 has nothing else and rejects the
# name, so there the step says it skipped.
noswissmap:
	@v=$$($(GO) env GOVERSION); minor=$$(echo "$$v" | sed -n 's/^go1\.\([0-9]*\).*/\1/p'); \
	if [ -n "$$minor" ] && [ "$$minor" -ge 24 ]; then \
		echo "GOEXPERIMENT=noswissmap $(GO) test ./internal/core ./internal/server ./internal/lockmgr -run 'Compact|Allocs|Peak'"; \
		GOEXPERIMENT=noswissmap $(GO) test ./internal/core ./internal/server ./internal/lockmgr -run 'Compact|Allocs|Peak'; \
	else \
		echo "noswissmap: skipped: $$v is not go1.24 or later, and its maps are bucket maps already"; \
	fi

# A quick pass over the randomized fault-injection suite (-short trims
# the seed count); the full sweep runs with plain `go test ./camelot`.
torture:
	$(GO) test -short -run TestAtomicityUnderRandomFaults ./camelot

# Every crash state a real disk allows the log's file (DESIGN.md §3.6):
# a group-commit log over a model of the page cache is crashed at each
# of its file calls, in each subset of its unsynced sectors and
# truncates, and each state is recovered, restarted and crashed again
# the same way; every forced record must survive, and recovery must
# never fail-stop. It prints how many states it walked; `make check`'s
# race pass walks the same set.
crashstates:
	$(GO) test -count=1 -v -run 'TestCrashStates|TestTailRepairSurvivesCrashMidRepair' ./internal/wal

# A bounded systematic fault sweep per commitment protocol: the pilot
# enumerates every injection point (log writes, datagram sends,
# checkpoint truncations) and camelot-chaos replays the workload with
# one fault per sampled point, checking the recovery oracle each time.
# The unbounded sweep is `go run ./cmd/camelot-chaos` (drop -points).
chaos:
	for p in 2pc nb paxos; do $(GO) run ./cmd/camelot-chaos -points 200 -protocol $$p || exit 1; done

# The Paxos Commit gate (DESIGN.md §10): the budget-conformance suite
# pinning the Gray–Lamport message/force table, the chaos tests over
# acceptor forces and 2b datagrams, the non-blocking-under-any-crash
# regression, the hazard tests of the co-location folds (core's
# handler-level ones, chaos's torn combined block and lost 2b), and the
# real-process coordinator-kill cluster smokes — Paxos Commit's and the
# non-blocking protocol's, the two that claim survivors resolve with
# the coordinator down. The 200-point Paxos
# sweep itself is `make chaos`'s third iteration. The outcome
# acknowledgement's path is shared by all three protocols and gated
# here too: core's ack-path table and promoted-leader regression, and
# the real-runtime piggybacking and no-retransmit runs, and the budget
# table's order-independent rows run on real nodes. So is the one
# table of stalled-family steps every protocol's timers and recovery
# enter (core's tick/Restore table), with the two non-blocking split
# decisions it closed: a pledged coordinator replicating, and a pledge
# forgotten across a restart. Two-phase commit as Paxos Commit at F=0
# is gated here as well (DESIGN.md §10): camelot's
# TestPaxosF0EqualsTwoPhaseDelayBudget diffs both protocols' timelines
# event for event and allows only its named differences, and chaos's
# TestPaxosF0ReplaysTwoPhaseSweep replays the full two-phase sweep at
# F=0 and requires the same oracle verdict; the TestPaxos patterns below
# select both.
paxos:
	$(GO) test ./camelot -run 'TestProtocolBudgetTable|TestRealBudgetTable|TestPaxos|TestFaultFreeRunNeverRetransmits|TestBackToBackCommitsPiggybackTheirAcks|TestNBPledgedCoordinatorDoesNotReplicate|TestNBAbortIntentSurvivesRestart'
	$(GO) test ./internal/core -run 'TestPaxos|TestFanoutCarriesOwedAcks|TestAckPath|TestStalledFamilyStep|TestRestoreFloorAndResolvedOutcomes'
	$(GO) test ./internal/chaos -run TestPaxos
	$(GO) test ./cmd/camelot-cluster -run 'TestClusterPaxosSmoke|TestClusterNBMidCommitKill'

# A short fuzz of the decoders hostile or hand-written bytes reach.
# Arbitrary bytes as a datagram, the first thing a hostile network
# hands any parser, must never panic the wire decoder, and a message it
# accepts must re-encode and decode to itself; its seeds reach a
# datagram of exactly wire.MaxDatagram bytes. The object table
# (internal/segment, every server's and every image's segment) is
# fuzzed against a map: a ctl key is hostile bytes, an entry's two
# length prefixes are decoded from the arena whenever a probe's tag
# matches, overwrites and removals compact the arena, and a clone
# shares every chunk with its original, so set, get, remove and clone
# sequences over arbitrary keys, and values longer than a chunk, must
# leave each table agreeing with its own map. Arbitrary bytes as the
# log's final block must never panic recovery
# and never yield a record whose frame does not check out; a record body
# sealed with its checksum must never panic the record decoder, and one
# it accepts must re-encode to the same bytes; arbitrary bytes as a ctl
# request line must never panic the control server, and what the
# server's own encoder writes back must be one line of valid JSON. The
# hand-written ctl codec is fuzzed against encoding/json: a line it
# decodes, encoding/json decodes to the same value, and what it encodes
# is encoding/json's bytes and decodes back to itself. The fault and
# layout parsers — chaos/v1 and netem/v1 schedules, the shardmap/v1
# map — must never panic, and whatever they accept must re-encode and decode to an
# equal value; they are seeded from the checked-in schedules. A data
# server driven by arbitrary nested-transaction programs must agree
# with the Moss reference model (internal/server/moss_test.go) on every
# value, every lock and the image recovery rebuilds from its log; it is
# seeded with the remote-grandparent abort and the abort-then-recover
# shapes. (The seed corpora alone run in `make test`.)
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshal -fuzztime 3s
	$(GO) test ./internal/segment -run '^$$' -fuzz FuzzObjectTable -fuzztime 3s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzBlockFrames -fuzztime 5s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzRecord -fuzztime 3s
	$(GO) test ./internal/ctl -run '^$$' -fuzz FuzzRequestLine -fuzztime 3s
	$(GO) test ./internal/ctl -run '^$$' -fuzz FuzzCodec -fuzztime 3s
	$(GO) test ./internal/chaos -run '^$$' -fuzz FuzzDecodeSchedule -fuzztime 3s
	$(GO) test ./internal/netem -run '^$$' -fuzz FuzzDecodeSchedule -fuzztime 3s
	$(GO) test ./internal/shardmap -run '^$$' -fuzz FuzzUnmarshal -fuzztime 3s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzMoss -fuzztime 3s

# Every in-tree Go benchmark, once each: not a measurement, but a
# benchmark that panics or no longer compiles against its package
# fails here instead of the next time someone measures with it.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# cmd/camelot-perf is a module of its own (BENCHMARK.json's contract),
# so `go build/vet/test ./...` never compile it; its wal.Store wrappers
# and RealNode/ctl calls are exactly what a change to those surfaces
# breaks. Every test runs, the ones that boot a cluster included, but
# TestBudgets: it still pins the per-transaction flush counts from
# before group commit and the Paxos fold, and fails until a change to
# the benchmark re-pins them (ROADMAP 1(g)).
perf:
	$(GO) -C cmd/camelot-perf vet .
	$(GO) -C cmd/camelot-perf test -skip '^TestBudgets$$' .

# perf-export starts perf-compare and perf-pairs: it exports BASE's
# committed tree into the git-ignored $(PERF_DIR)/base.
PERF_DIR = .perf-compare
define perf-export
	@test -n "$(BASE)" || { echo "usage: make $@ BASE=<git ref>"; exit 2; }
	rm -rf $(PERF_DIR)
	mkdir -p $(PERF_DIR)/base
	git archive $(BASE) | tar -x -C $(PERF_DIR)/base
endef

# The base-vs-head benchmark gate: export BASE's committed tree into a
# git-ignored directory, run every workload there and then on the
# working tree (BENCHMARK.json's run length), and diff the two outputs
# against BENCHMARK.json's bounds. camelot-perf -compare exits non-zero
# if any end-to-end metric is "worse", and so does this target. Timings
# on a shared host drift by more than some bounds between two runs; a
# "worse" there wants a second look (alternate the order, repeat), not
# a shrug.
perf-compare:
	$(perf-export)
	$(GO) -C $(PERF_DIR)/base/cmd/camelot-perf run . -workload all -seconds 10 > $(PERF_DIR)/base.json
	$(GO) -C cmd/camelot-perf run . -workload all -seconds 10 > $(PERF_DIR)/head.json
	$(GO) -C cmd/camelot-perf run . -compare -bench $(CURDIR)/BENCHMARK.json \
		$(CURDIR)/$(PERF_DIR)/base.json $(CURDIR)/$(PERF_DIR)/head.json

# Paired base-vs-head runs, the evidence a gain claim needs on a host
# whose timings drift between runs: BASE is exported as perf-compare
# does, each side's camelot-perf is built once, and ten pairs of
# `-workload all -seconds 10` run from each side's own directory, base
# first in odd pairs and head first in even ones, so drift over the
# whole run falls on both sides alike. Every output is kept as
# .perf-compare/pair-NN-{base,head}.json, and each pair's -compare
# table is printed; a "worse" pair does not stop the run, since the
# claim is about the pairs taken together. Last, camelot-evidence
# summarizes the pairs into .perf-compare/evidence.json
# (camelot-evidence/v1): per workload and end-to-end metric, each
# side's runs, medians and quartiles, the change, how many pairs read
# lower, and the verdicts.
perf-pairs:
	$(perf-export)
	$(GO) -C $(PERF_DIR)/base/cmd/camelot-perf build -o $(CURDIR)/$(PERF_DIR)/base-perf .
	$(GO) -C cmd/camelot-perf build -o $(CURDIR)/$(PERF_DIR)/head-perf .
	@for i in $$(seq 1 10); do \
		nn=$$(printf %02d $$i); \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir=$(PERF_DIR)/base/cmd/camelot-perf; else dir=cmd/camelot-perf; fi; \
			echo "perf-pairs: pair $$nn, $$side"; \
			(cd $$dir && $(CURDIR)/$(PERF_DIR)/$$side-perf -workload all -seconds 10) \
				> $(PERF_DIR)/pair-$$nn-$$side.json || exit 1; \
		done; \
		echo "perf-pairs: pair $$nn, -compare"; \
		$(PERF_DIR)/head-perf -compare -bench $(CURDIR)/BENCHMARK.json \
			$(PERF_DIR)/pair-$$nn-base.json $(PERF_DIR)/pair-$$nn-head.json || true; \
	done
	$(GO) run ./cmd/camelot-evidence -bench BENCHMARK.json -dir $(PERF_DIR) > $(PERF_DIR)/evidence.json
	@echo "perf-pairs: wrote $(PERF_DIR)/evidence.json"

# "The simulator did not move" as a command. First a diff of the
# pinned timelines, schemas and regression corpora against BASE — the
# working tree included, so a regenerated golden is caught before it is
# committed. Then BASE is exported into the git-ignored .frozen/, as
# perf-compare does, camelot-trace and camelot-chaos are built there
# and from the working tree, and each FROZEN_RUNS line is run on both
# and its output (stdout, stderr and exit status) diffed: the text
# reports carry the per-family budget and phase-latency tables that no
# golden pins. With perf-compare it is the pair every PR that claims no
# gain quotes: this one says the simulated behaviour did not move, that
# one that the measured numbers did not. The 2pc chaos run is the full
# sweep: the 60-point samples reach no checkpoint point, so it is the
# one run that injects a fault at the checkpoint's truncation. The three
# camelot-trace crash runs crash a site mid-commit and restart it: each
# restores an in-doubt family and applies its outcome after recovery.
# The two isolate-sub runs cut a subordinate off and heal it: under nb
# two sites promote and two force abort intents (the promoted
# coordinator's status and pledge tallies), under paxos the coordinator
# re-asks for votes round after round (its vote and 2b tallies).
FROZEN = $(wildcard cmd/camelot-trace/testdata internal/exp/testdata internal/chaos/testdata \
	internal/load/testdata)
FROZEN_DIR = .frozen
FROZEN_RUNS = \
	'camelot-trace -protocol 2pc' \
	'camelot-trace -protocol nb' \
	'camelot-trace -protocol paxos' \
	'camelot-trace -loss 0.25' \
	'camelot-trace -protocol nb -fault crash-coordinator -heal-after 2s' \
	'camelot-trace -protocol 2pc -fault crash-sub -heal-after 2s' \
	'camelot-trace -protocol paxos -fault crash-coordinator -heal-after 2s' \
	'camelot-trace -protocol nb -fault isolate-sub -heal-after 2s' \
	'camelot-trace -protocol paxos -fault isolate-sub -heal-after 2s' \
	'camelot-chaos -protocol 2pc' \
	'camelot-chaos -points 60 -protocol nb' \
	'camelot-chaos -points 60 -protocol paxos' \
	'camelot-chaos -shards 4 -txns 6 -points 40 -protocol 2pc' \
	'camelot-chaos -shards 4 -txns 6 -points 40 -protocol nb' \
	'camelot-chaos -shards 4 -txns 6 -points 40 -protocol paxos'
frozen:
	@test -n "$(BASE)" || { echo "usage: make frozen BASE=<git ref>"; exit 2; }
	git diff --exit-code $(BASE) -- $(FROZEN)
	rm -rf $(FROZEN_DIR)
	mkdir -p $(FROZEN_DIR)/base
	git archive $(BASE) | tar -x -C $(FROZEN_DIR)/base
	$(GO) -C $(FROZEN_DIR)/base build -o $(CURDIR)/$(FROZEN_DIR)/base-bin/ ./cmd/camelot-trace ./cmd/camelot-chaos
	$(GO) build -o $(FROZEN_DIR)/head-bin/ ./cmd/camelot-trace ./cmd/camelot-chaos
	@for run in $(FROZEN_RUNS); do \
		for side in base head; do \
			$(FROZEN_DIR)/$$side-bin/$$run > $(FROZEN_DIR)/$$side.out 2>&1; \
			echo "exit $$?" >> $(FROZEN_DIR)/$$side.out; \
		done; \
		diff -u $(FROZEN_DIR)/base.out $(FROZEN_DIR)/head.out || \
			{ echo "frozen: '$$run' differs from $(BASE)"; exit 1; }; \
		echo "frozen: '$$run' identical"; \
	done
	@echo "frozen: OK ($(FROZEN) and every FROZEN_RUNS output identical to $(BASE))"

# Regenerate the camelot-trace golden files after an intended change
# to the event schema or the simulation timeline. Lints first: goldens
# regenerated from a tree that breaks the determinism rules would bake
# a nondeterministic timeline into the repository.
golden: lint
	$(GO) test ./cmd/camelot-trace -update

# Machine-readable benchmark report for the performance trajectory:
# every simulated table plus the host-dependent real-runtime scaling
# experiment (R10). Real-network latency is cmd/camelot-perf's job (make
# perf-compare), saturation is make loadgen's. CI archives the file per
# commit; the checked-in BENCH_*.json files are history, not outputs.
bench:
	$(GO) run ./cmd/camelot-bench -quick -json -realtime > bench-report.json
	@echo "wrote bench-report.json"

# The open-loop load generator (R5, DESIGN.md §13): a seeded arrival
# schedule at each target rate drives a freshly booted real 3-site
# cluster (one shard per site) per cell over the ctl control plane;
# latency is measured from each operation's intended arrival time, so
# queueing delay under overload lands in the percentiles instead of
# vanishing (coordinated omission). CI archives the camelot-load/v1
# report.
loadgen:
	$(GO) run ./cmd/camelot-bench -loadgen -json -rates 200,500,1000 \
		-protocols 2pc,nb,paxos -duration 1s -sessions 64 -seed 1 \
		> loadgen-report.json
	@echo "wrote loadgen-report.json"

# Group commit across transactions (EXPERIMENTS.md R6) as one command.
# camelot-perf keeps its WALs on /dev/shm and runs two sessions, so it
# cannot show forces shared between transactions. This offers 6000
# ops/s for 1 s to a freshly booted real 3-site cluster per protocol,
# each site's WAL in the default temp dir (a disk under /tmp), once
# with 1 client session and once with 16. groupcommit-report.json is a
# JSON array of the two camelot-load/v1 reports, 1 session first. Read
# each row as device writes per op = wal_device_writes ÷ ops: at 1
# session no two commits overlap, so it is each protocol's force
# budget, exactly 2 / 4 / 3 for 2pc / nb / paxos; at 16 it falls below
# that by as much as concurrent commits shared a device write, and
# goodput says what the cluster sustained meanwhile.
groupcommit:
	sep='['; for s in 1 16; do \
		echo "$$sep"; sep=','; \
		$(GO) run ./cmd/camelot-bench -loadgen -json -rates 6000 -duration 1s \
			-sessions $$s -protocols 2pc,nb,paxos || exit 1; \
	done > groupcommit-report.json; echo ']' >> groupcommit-report.json
	@echo "wrote groupcommit-report.json"

# A real multi-process cluster on loopback — one driver, two fault
# plans. This is the built-in plan: spawn camelot-node daemons under
# one shard map (one shard per site), run the seeded keyspace workload
# with a mid-run SIGKILL and restart, heal, check the recovery oracle
# over the control plane, bounce every node and check it again.
cluster:
	$(GO) run ./cmd/camelot-cluster -nodes 3 -txns 200 -seed 1

# The real-network fault storm (DESIGN.md §12): the same driver and
# lifecycle as `make cluster`, its other fault plan. The seeded CI
# netem/v1 schedule — lossy duplicating reordering links, a 30s
# one-way partition, a mid-run SIGKILL/restart, a SIGSTOP freeze, and
# a WAL disk death — runs against a 3-site loopback cluster through
# the emulator proxies, then the heal, every oracle rule and the pinned
# retransmit+inquiry budget (no storm). The driver and every node run
# under the race detector, so the storm doubles as the race pass over
# the real runtime's fault paths. The JSON report lands in
# netem-report.json; CI archives it.
NETEM_NODE = $(CURDIR)/.netem/camelot-node
netem:
	mkdir -p $(dir $(NETEM_NODE))
	$(GO) build -race -o $(NETEM_NODE) ./cmd/camelot-node
	$(GO) run -race ./cmd/camelot-cluster -nodes 3 -seed 42 -node $(NETEM_NODE) \
		-netem cmd/camelot-cluster/testdata/netem-ci.json \
		-retry-cap 800ms -max-retry 12000 -json > netem-report.json
	@echo "wrote netem-report.json"

check: fmt vet build lint race noswissmap torture chaos paxos fuzz benchsmoke perf
	@echo "check: OK"

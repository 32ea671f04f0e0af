GO ?= go

.PHONY: all check vet build test loc setup-budget race chaos load-chaos dist-chaos obs crossbuild scale-smoke ecsgrid-smoke figures-check figures-golden bench-once bench-smoke bench-e2e bench-pair

all: check

# The full verification gate: vet, build, tests with the race detector,
# the chaos harness (faultnet integration tests, also under -race), the
# distribution-plane partition/heal drill, then the observability smoke
# test against a live in-process stack, then every figure's checksum
# against the golden list, then cross-compiles of the non-linux /
# non-amd64 fallback paths, then one pass of every kept micro-benchmark,
# then the benchmark module's own vet and short tests.
check: vet build race chaos load-chaos dist-chaos obs scale-smoke ecsgrid-smoke figures-check crossbuild bench-once bench-smoke

# vet also fails on any Go file gofmt would change, outside the parent
# trees bench-pair exports under .bench_build/.
vet:
	@unformatted="$$(gofmt -l . | grep -v '^\.bench_build/')"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet ./cmd/...

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines outside bench/ — the number CHANGES.md quotes when a PR
# reports itself net-negative — for the whole repo, the three packages of
# the serving path, the map, its wire format and its distribution, the
# control plane and the config, the figures, and the world and platform
# the map is built from.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l; }; \
	printf '%-20s %6d\n' repo "$$(count .)"; \
	for p in internal/authority internal/dnsserver cmd/eumdns internal/mapping internal/mapwire internal/mapdist internal/mapmaker internal/config internal/experiments internal/world internal/cdn; do printf '%-20s %6d\n' $$p "$$(count $$p)"; done

# The set-up budget: every stage between a seed and a served map, at the
# cold_wide benchmark's size on one CPU — the rows of DESIGN.md's set-up
# budget table ("before" is the same target at the parent commit).
setup-budget:
	$(GO) test -run '^$$' -bench SetupBudget -benchtime 5x -cpu 1 ./internal/mapping

# Chaos harness: the full UDP serving plane under injected packet loss,
# duplication, reordering, latency jitter, server outages and MapMaker
# build crashes (see DESIGN.md "Failure model & degradation ladder").
# -v so the server's deadline-drop/RRL/panic counters and the authority's
# stale/fallback counts land in CI output.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestEndToEndThroughFaults' ./internal/faultnet/

# Load-aware picking chaos drill: flash crowd + deployment brownout + 10%
# packet loss + continuous map churn with the balance factor on, asserting
# >=99% lookup success, answers moved off deployments that still had room,
# and no degradation when the load feed dies (see DESIGN.md "Load-aware
# picks: the balance factor").
load-chaos:
	$(GO) test -race -v -run 'TestLoadChaos' ./internal/faultnet/

# Distribution-plane drill: one publisher and three fetching replicas over
# real sockets, a total control-network partition cut with faultnet, >=99%
# query success through a client rotating over the replicas while they
# degrade independently, reconvergence within two fetch intervals after the heal
# (see DESIGN.md "Distributed map distribution").
dist-chaos:
	$(GO) test -race -v -run 'TestDistClusterPartitionHeal' ./internal/mapdist/

# Observability smoke test: boots the full stack (world, platform, map
# maker, authority, live UDP server) in-process, serves a real query, and
# scrapes /metrics, /healthz and /mapz (see DESIGN.md "Observability
# plane"); then a publisher and a replica serving the top level, whose
# referrals must equal a standalone's.
obs:
	$(GO) test -race -v -run 'TestObsSmoke|TestHealthzDegraded|TestAdminDistRoles|TestReplicaTopLevel' ./cmd/eumdns/

# Small-N smoke of the million-block (Huge) codepath: partitioned layout,
# interned arena, incremental republish and the resident bytes/block
# ceiling at a ~50k-block world (seconds, not minutes).
scale-smoke:
	$(GO) test -v -run 'TestSnapshotScaleSmoke' .

# Public-resolver era grids: adoption x ECS-prefix win matrix and the
# query-amplification sweep, under -race and at two worker counts (the
# grids must be byte-identical either way; see DESIGN.md "Public-resolver
# era model").
ecsgrid-smoke:
	$(GO) test -race -v -run 'TestECSGrid|TestAmpGrid|TestGridWorkerCountInvariant' ./internal/experiments/

# Figure drift: every `eumsim -fig <f> -scale small -seed 1` table, at
# -workers 1 and at -workers 4, must hash to the line FIGURES.sha256 holds
# for it (the `scale` figure's wall-clock rows are left out of its hash, and
# its byte counts are hashed apart, on the `scale-memory` line). A
# change that means to move a figure regenerates the list with `make
# figures-golden` and says which rows moved; one that does not is caught
# here rather than by eye.
figures-check:
	sh figures-check.sh check

figures-golden:
	sh figures-check.sh golden

# One iteration of each micro-benchmark a measurement in CHANGES.md or
# DESIGN.md quotes, so none can rot unrun: the wire packer, the map's
# answer, the local server pick, a publish, serving under map churn and
# world generation. Regenerate a figure with `eumsim -fig <id>`, not here.
bench-once:
	$(GO) test -run '^$$' -benchtime 1x \
		-bench '^(BenchmarkDNSMessagePack|BenchmarkMappingMap|BenchmarkPickServers|BenchmarkSnapshotSwap|BenchmarkServingUnderMapChurn|BenchmarkWorldGenerate)$$' \
		./internal/dnsmsg ./internal/mapping ./internal/mapmaker ./internal/world

# The benchmark is its own module (bench/go.mod), outside the root ./...:
# it reaches the product only through the symbols bench/internal/layers/
# api.go lists, so a rename there breaks nothing else. Vet it and run its
# short tests (which start a real eumdns replica) on every check.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# One end-to-end benchmark run as the driver makes it: make bench-e2e
# W=cold_wide (see bench/README.md; twenty seconds of load, about a minute).
W ?= hot_zipf
bench-e2e:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 20 --trace 0

# Paired runs for a performance claim: make bench-pair BASE=<rev> W=cold_wide
# N=10 exports BASE into .bench_build/pair/, alternates bench/run.sh between
# that tree and this one, and prints per metric both medians with quartiles,
# the pairs won and whether the medians differ by more than the parent's IQR
# (see bench-pair.sh; ten pairs of cold_wide take about twenty minutes).
BASE ?= HEAD
N ?= 10
bench-pair:
	bash bench-pair.sh $(BASE) $(W) $(N)

# The SO_REUSEPORT and recvmmsg/sendmmsg code is build-tagged per OS and
# arch; compile the portable fallbacks so a tag typo can't rot unnoticed.
# linux/386 is the one Linux build on the single-datagram path: SO_REUSEPORT
# shards, no recvmmsg wiring. linux/s390x is big-endian, where mapwire swaps
# the words of the row columns it copies (TestColumnsRoundTripSwapped runs
# that path on this host).
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=linux GOARCH=s390x $(GO) build ./...

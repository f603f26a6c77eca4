# CI runs exactly these targets (see .github/workflows/ci.yml), so a
# green `make lint test bench sweep-smoke` locally means a green CI.

GO  ?= go
BIN ?= bin

.PHONY: all build test bench perf-gate lint sweep-smoke sweep-shard-smoke sweep-seq-smoke sweep-live-smoke serve-smoke serve-load golden clean

all: build

build:
	$(GO) build ./...
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/choreo ./cmd/choreo
	$(GO) build -o $(BIN)/choreo-bench ./cmd/choreo-bench
	$(GO) build -o $(BIN)/choreo-agent ./cmd/choreo-agent

test:
	$(GO) test -race -shuffle=on -timeout 120s ./...

# One iteration of every benchmark plus the paper reproduction at quick
# scale: catches perf-path regressions without CI-scale runtimes. The
# placement and netsim packages carry the kernel benchmarks
# (BenchmarkOptimal, BenchmarkGreedy, BenchmarkBatchAvailabilityContended).
bench: build
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/place ./internal/netsim
	$(BIN)/choreo-bench -quick

# The performance gate: every perfbench workload in BENCHMARK.json, run
# in alternating pairs on this checkout and on BASE (a git revision), on
# this host. Fails when a head run is incorrect, fails more ops than
# base, or a median end-to-end metric worsens past its BENCHMARK.json
# bound. See scripts/perf-gate.sh.
perf-gate:
	bash scripts/perf-gate.sh "$(BASE)"

lint:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# The sweep engine's acceptance check: the default grid must produce
# byte-identical JSON on 1 worker and on 8 — and the streaming JSONL
# pipeline must be deterministic across worker counts too. Turning on span tracing (-events) must not
# change a single report byte, and the event log itself must decode as
# schema-valid JSONL with balanced span start/end pairs.
sweep-smoke: build
	$(BIN)/choreo sweep -workers 1 -out $(BIN)/sweep-w1.json
	$(BIN)/choreo sweep -workers 8 -cache-stats -out $(BIN)/sweep-w8.json
	cmp $(BIN)/sweep-w1.json $(BIN)/sweep-w8.json
	$(BIN)/choreo sweep -workers 1 -stream -out $(BIN)/sweep-s1.jsonl
	$(BIN)/choreo sweep -workers 8 -stream -out $(BIN)/sweep-s8.jsonl
	cmp $(BIN)/sweep-s1.jsonl $(BIN)/sweep-s8.jsonl
	$(BIN)/choreo sweep -workers 8 -stream -events $(BIN)/sweep-events.jsonl -out $(BIN)/sweep-s8e.jsonl
	cmp $(BIN)/sweep-s1.jsonl $(BIN)/sweep-s8e.jsonl
	$(BIN)/choreo obs validate-events $(BIN)/sweep-events.jsonl
	$(BIN)/choreo obs report $(BIN)/sweep-events.jsonl | grep -q 'critical path'
	$(BIN)/choreo obs report -format json $(BIN)/sweep-events.jsonl | grep -q '"criticalPath"'
	$(BIN)/choreo obs report -format csv $(BIN)/sweep-events.jsonl | head -n 1 | grep -q '^name,count,total_ns'
	@echo "sweep output is byte-identical across worker counts and with -events tracing on; obs report analyzed the span log in all three formats"

# The distributed-sweep acceptance check: the default grid run as 3
# shards and merged must be byte-identical to the unsharded stream, and
# resuming a truncated shard must complete it byte-identically while
# re-running only the missing cells.
sweep-shard-smoke: build
	$(BIN)/choreo sweep -workers 8 -stream -out $(BIN)/sweep-full.jsonl
	for i in 1 2 3; do \
		$(BIN)/choreo sweep -workers 8 -shard $$i/3 -out $(BIN)/sweep-shard$$i.jsonl || exit 1; \
	done
	$(BIN)/choreo merge -out $(BIN)/sweep-merged.jsonl \
		$(BIN)/sweep-shard1.jsonl $(BIN)/sweep-shard2.jsonl $(BIN)/sweep-shard3.jsonl
	cmp $(BIN)/sweep-full.jsonl $(BIN)/sweep-merged.jsonl
	head -c $$(($$(wc -c < $(BIN)/sweep-shard2.jsonl) * 2 / 3)) $(BIN)/sweep-shard2.jsonl \
		> $(BIN)/sweep-shard2-cut.jsonl
	$(BIN)/choreo sweep -workers 8 -shard 2/3 -resume $(BIN)/sweep-shard2-cut.jsonl \
		-out $(BIN)/sweep-shard2-resumed.jsonl
	cmp $(BIN)/sweep-shard2.jsonl $(BIN)/sweep-shard2-resumed.jsonl
	@echo "3-shard merge is byte-identical to the unsharded stream; resume completed the truncated shard"

# The sequence-sweep acceptance check: a tiny §6.3 in-sequence grid
# (arrivals + re-evaluation/migration cells) must stream byte-identical
# JSONL across worker counts, and the same grid run as
# 2 shards and merged must reproduce the unsharded stream exactly.
SEQ_FLAGS = -mode sequence -topologies tworack -workloads shuffle -vms 6 -mean-mb 200 \
	-interarrival 3s,10s -seq-apps 4 -reeval 0,5s -algorithms choreo,random -seeds 2

sweep-seq-smoke: build
	$(BIN)/choreo sweep $(SEQ_FLAGS) -workers 1 -stream -out $(BIN)/seq-s1.jsonl
	$(BIN)/choreo sweep $(SEQ_FLAGS) -workers 8 -stream -out $(BIN)/seq-s8.jsonl
	cmp $(BIN)/seq-s1.jsonl $(BIN)/seq-s8.jsonl
	for i in 1 2; do \
		$(BIN)/choreo sweep $(SEQ_FLAGS) -workers 8 -shard $$i/2 -out $(BIN)/seq-shard$$i.jsonl || exit 1; \
	done
	$(BIN)/choreo merge -out $(BIN)/seq-merged.jsonl $(BIN)/seq-shard1.jsonl $(BIN)/seq-shard2.jsonl
	cmp $(BIN)/seq-s1.jsonl $(BIN)/seq-merged.jsonl
	@echo "sequence sweep is byte-identical across worker counts and 2-shard merge"

# The live-mesh acceptance check: a small grid swept twice against a
# loopback fleet of real choreo-agents must produce schema-stable
# output — identical grid echoes (backend included) and line counts —
# and a complete live report must replay byte-identically through
# -resume, which parses every line back to its scenario identity (the
# same machinery shards and merges use). The replay needs no agents:
# nothing re-runs, proving resume really skips measured cells.
# Observability rides the same run: the traced sweep must produce one
# stitched event log containing agent-side spans (proof the trace
# context crossed the process boundary), and a fleet metrics scrape
# must merge into a valid exposition with per-agent labels.
# The executed loop closes last: a -execute sweep must stream measured
# columns next to predictions, aggregate through `choreo obs accuracy`,
# leave exec.transfer spans in the event log and a valid
# choreo_prediction_* exposition, and its CSV must carry non-empty
# error_pct cells.
LIVE_AGENTS = 127.0.0.1:17131,127.0.0.1:17132,127.0.0.1:17133
LIVE_FLAGS = -backend live -agents $(LIVE_AGENTS) \
	-topologies ec2-2013 -workloads shuffle -vms 3 -mean-mb 64 \
	-algorithms choreo,random -seeds 1 -bursts 2 -burstlen 20 -packet 512

sweep-live-smoke: build
	@set -e; \
	$(BIN)/choreo-agent -listen 127.0.0.1:17131 & a1=$$!; \
	$(BIN)/choreo-agent -listen 127.0.0.1:17132 & a2=$$!; \
	$(BIN)/choreo-agent -listen 127.0.0.1:17133 & a3=$$!; \
	trap 'kill $$a1 $$a2 $$a3 2>/dev/null || true' EXIT; \
	sleep 1; \
	$(BIN)/choreo agents health -agents $(LIVE_AGENTS); \
	$(BIN)/choreo sweep $(LIVE_FLAGS) -stream -events $(BIN)/live-events.jsonl -out $(BIN)/live-run1.jsonl; \
	$(BIN)/choreo sweep $(LIVE_FLAGS) -stream -out $(BIN)/live-run2.jsonl; \
	head -n 1 $(BIN)/live-run1.jsonl > $(BIN)/live-grid1.json; \
	head -n 1 $(BIN)/live-run2.jsonl > $(BIN)/live-grid2.json; \
	cmp $(BIN)/live-grid1.json $(BIN)/live-grid2.json; \
	n1=$$(wc -l < $(BIN)/live-run1.jsonl); n2=$$(wc -l < $(BIN)/live-run2.jsonl); \
	[ "$$n1" -eq "$$n2" ]; \
	$(BIN)/choreo obs validate-events $(BIN)/live-events.jsonl; \
	grep -q '"name":"agent.train"' $(BIN)/live-events.jsonl; \
	$(BIN)/choreo obs report $(BIN)/live-events.jsonl | grep -q 'agent.train'; \
	$(BIN)/choreo agents metrics -agents $(LIVE_AGENTS) > $(BIN)/live-agents.prom; \
	$(BIN)/choreo obs validate-prom $(BIN)/live-agents.prom; \
	grep -q 'agent="127.0.0.1:17131"' $(BIN)/live-agents.prom; \
	grep -q 'choreo_agent_trains_total' $(BIN)/live-agents.prom; \
	$(BIN)/choreo sweep $(LIVE_FLAGS) -execute -stream \
		-events $(BIN)/exec-events.jsonl -metrics $(BIN)/exec-metrics.prom \
		-out $(BIN)/live-exec.jsonl; \
	$(BIN)/choreo obs accuracy $(BIN)/live-exec.jsonl | grep -q 'prediction error by algorithm'; \
	$(BIN)/choreo obs validate-prom $(BIN)/exec-metrics.prom; \
	grep -q 'choreo_prediction_error_ratio_bucket' $(BIN)/exec-metrics.prom; \
	$(BIN)/choreo obs validate-events $(BIN)/exec-events.jsonl; \
	grep -q '"name":"exec.transfer"' $(BIN)/exec-events.jsonl; \
	$(BIN)/choreo sweep $(LIVE_FLAGS) -execute -csv $(BIN)/live-exec.csv -out $(BIN)/live-exec.json; \
	head -n 1 $(BIN)/live-exec.csv | grep -q 'predicted_s,measured_s,error_pct'; \
	awk -F, 'NR>1 && $$NF != "" {n++} END {exit n==0}' $(BIN)/live-exec.csv; \
	kill $$a1 $$a2 $$a3 2>/dev/null || true; \
	$(BIN)/choreo sweep $(LIVE_FLAGS) -stream -resume $(BIN)/live-run1.jsonl -out $(BIN)/live-replay.jsonl; \
	cmp $(BIN)/live-run1.jsonl $(BIN)/live-replay.jsonl
	@echo "live-mesh sweep is schema-stable, replays through -resume, stitched agent spans into one trace, served a merged fleet scrape, and the executed loop produced measured-vs-predicted accuracy"

# The placement-service acceptance check (sim backend): start the
# server, place the same application twice through the versioned client,
# and require the two responses byte-identical — the epoch is pinned
# (-interval 1h) and greedy placement is deterministic, so any
# difference is a schema or determinism regression. The health endpoint
# must agree on backend and epoch. The Prometheus endpoint must serve
# valid text-format exposition (checked by the repo's own parser — no
# promtool) covering the serve/epoch families; the retired /v1/metrics
# and any unknown /v1/ path must 404 with a JSON body. The served
# /v1/env is the offline `choreo place -rates` schema: the offline tool
# must place on it, and must refuse a misspelled -model.
serve-smoke: build
	@set -e; \
	printf '{"name":"smoke","cpu":[1,1,1,1],"transfersMB":[[0,2,200],[0,3,200],[1,2,200],[1,3,200]]}' \
		> $(BIN)/serve-app.json; \
	$(BIN)/choreo serve -backend sim -vms 8 -interval 1h -listen 127.0.0.1:17180 & srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	$(BIN)/choreo place -server http://127.0.0.1:17180 -app $(BIN)/serve-app.json \
		> $(BIN)/serve-place1.json; \
	$(BIN)/choreo place -server http://127.0.0.1:17180 -app $(BIN)/serve-app.json \
		> $(BIN)/serve-place2.json; \
	cmp $(BIN)/serve-place1.json $(BIN)/serve-place2.json; \
	grep -q '"v": 1' $(BIN)/serve-place1.json; \
	grep -q '"epoch": 1' $(BIN)/serve-place1.json; \
	grep -q '"envHash"' $(BIN)/serve-place1.json; \
	curl -sf http://127.0.0.1:17180/v1/health | grep -q '"backend":"sim"'; \
	curl -sf http://127.0.0.1:17180/metrics > $(BIN)/serve-metrics.prom; \
	$(BIN)/choreo obs validate-prom $(BIN)/serve-metrics.prom; \
	grep -q '^choreo_epochs_total 1$$' $(BIN)/serve-metrics.prom; \
	grep -q '^choreo_placements_total 2$$' $(BIN)/serve-metrics.prom; \
	grep -q '^choreo_http_request_seconds_bucket' $(BIN)/serve-metrics.prom; \
	grep -q '^choreo_snapshot_epoch 1$$' $(BIN)/serve-metrics.prom; \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:17180/v1/metrics)" = 404; \
	curl -s http://127.0.0.1:17180/v1/metrics | grep -q '"error"'; \
	curl -sf http://127.0.0.1:17180/v1/env > $(BIN)/serve-env.json; \
	$(BIN)/choreo place -rates $(BIN)/serve-env.json -app $(BIN)/serve-app.json | grep -q '"machineOf"'; \
	if $(BIN)/choreo place -model pipx -rates $(BIN)/serve-env.json -app $(BIN)/serve-app.json 2>/dev/null; then \
		echo "choreo place accepted -model pipx" >&2; exit 1; \
	fi; \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:17180/v1/nope)" = 404; \
	curl -s http://127.0.0.1:17180/v1/nope | grep -q '"error"'
	@echo "placement service responses are schema-stable and byte-identical on a pinned epoch; /metrics is valid Prometheus; /v1/env feeds offline place"

# The placement-service load check (live backend): a loopback fleet of
# real agents behind a server re-measuring every 2s, hammered by 6
# concurrent clients for 8s. `choreo load` exits non-zero on any request
# error, on a torn snapshot, or if responses did not span >= 2
# measurement epochs — i.e. it proves placements proceed, lock-free,
# while mesh re-measurement churns underneath.
SERVE_AGENTS = 127.0.0.1:17144,127.0.0.1:17145,127.0.0.1:17146

serve-load: build
	@set -e; \
	$(BIN)/choreo-agent -listen 127.0.0.1:17144 & a1=$$!; \
	$(BIN)/choreo-agent -listen 127.0.0.1:17145 & a2=$$!; \
	$(BIN)/choreo-agent -listen 127.0.0.1:17146 & a3=$$!; \
	trap 'kill $$a1 $$a2 $$a3 $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	$(BIN)/choreo agents health -agents $(SERVE_AGENTS); \
	$(BIN)/choreo serve -backend live -agents $(SERVE_AGENTS) -interval 2s \
		-bursts 2 -burstlen 20 -packet 512 -listen 127.0.0.1:17181 & srv=$$!; \
	sleep 3; \
	$(BIN)/choreo load -server http://127.0.0.1:17181 -clients 6 -duration 8s -min-epochs 2
	@echo "concurrent placements sustained across live re-measurement epochs"

# Regenerate the sweep engine's golden report after an intended grid or
# engine change, then re-run the test to prove the new golden holds.
golden:
	$(GO) test ./internal/sweep -run TestGoldenJSONReport -update
	$(GO) test ./internal/sweep -run TestGoldenJSONReport

clean:
	rm -rf $(BIN)

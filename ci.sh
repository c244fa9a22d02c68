#!/usr/bin/env bash
# Local CI gate: formatting, release build, workspace tests, lint-clean
# clippy, and an observability smoke test.
# The build environment is offline (vendored deps), hence --offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check

# One-path gate: one index (the LSM), one front door (ShardedPortal; a
# PortalService is only ever its shard), one request API, one bench harness
# (benchmark/), each child weight stored once, one query walk over one tree
# (the arena: the builder's pointer nodes do not outlive the build). The names
# of what was deleted to get there must not come back;
# `#![forbid(unsafe_code)]` in every first-party crate root holds the rest of
# the line. What no query path reached went too: the IDW model views and the
# per-slot histograms. And one population number: every split weighs by the
# exact live count in the region, so the live-fraction and overlap-product
# weights (and L0's separate count) stay gone. And one per-query record: the
# flight record is a query's trace, so the unlinked span tracer stays gone.
# The registry holds additive counters and histograms only, always on: no
# gauge one instance's value overwrites another's, and no off switch.
if grep -rnE '\bPortal(::new|<)|\bMonolithic\b|SharedPortal|reindex_discarding|pending_unindexed|AliasTable|Morton|morton_pack|\bcriterion\b|HotPathLayout|TermTarget|\bexec_colr\b|portal_sim|fresh_cached_readings|leaf_triage|arena_mirrors_tree_structure|QueryRequestBuilder|with_mode\b|with_deadline\b|live_sensor_metas\b|\bentry_pos\b|PortalService::new|PortalConfigBuilder|PortalConfigError|frozen_l0|deferred_from|since_cut|fn dispatch\b|worker completed|IdwModel|model_views|slot_histograms|HistogramSpec|usable_histogram|with_histogram|set_hist|live_fraction|query_weight|overlap_weight|count_matching|\bTracer\b|SpanKind|TraceEvent|tracer\(\)|trace_parse|\bGauge\b|\.gauge\(|set_enabled' \
    crates src tests examples Cargo.toml; then
    echo "ci: a deleted path is back (matches above)" >&2
    exit 1
fi
# The owning node type is build-time scaffolding: defined, and held in a
# `Vec`, in the bulk loader only.
if grep -rnE 'pub(\([a-z]+\))? struct Node\b|nodes: Vec<Node>' crates/core/src | grep -v '^crates/core/src/build\.rs:'; then
    echo "ci: builder nodes outside crates/core/src/build.rs (matches above)" >&2
    exit 1
fi
# A node's slot cache is a run of `Copy` cells in its stripe's slab, its
# per-kind rows kept only once it has seen a second kind. The ring of owning
# slots it replaced lives on as the `#[cfg(test)]` reference the flat ring is
# checked against, in that reference's own file and nowhere else.
if grep -rnE 'Option<\(u64, Slot\)>|\bkind_insert\b|\bkind_remove\b' crates/core/src |
    grep -v '^crates/core/src/slot_cache/reference\.rs:'; then
    echo "ci: the owning slot ring outside its test reference (matches above)" >&2
    exit 1
fi
# One way through the index: no code asks what shape the cut has before
# deciding how to answer, and the words for the shape that used to be asked
# about stay out of the two crates that asked (geometry legitimately says
# "degenerate rectangle").
if grep -rnE '\bpassthrough\b|\bdegenerate\b' crates/core/src/lsm crates/engine/src; then
    echo "ci: the LSM's second way in is back (matches above)" >&2
    exit 1
fi
# Churn without hashing: the LSM's directory (with its retired bit) and the
# router's tickets are one chunked `IdTable` indexed by id, and L0 is arrays
# by position, so a merge's batch is a prefix length, not an id set.
if grep -rnE 'HashMap<u32, SensorLoc>|HashSet<u32>' crates/core/src/lsm ||
    grep -rnE '\bbatch_ids\b|struct TicketTable\b' crates src tests examples; then
    echo "ci: a hashed churn structure is back (matches above)" >&2
    exit 1
fi
# One node numbering: a node's id is its breadth-first arena position, so no
# table translates between the builder's push order and the arena.
if grep -rnE 'fn index_of\b|fn orig\b|child_ids\(' crates/core/src; then
    echo "ci: a node-id translation table is back (matches above)" >&2
    exit 1
fi
# One nearest-centre search in the bulk build: every Lloyd round assigns
# from per-cell candidate lists, so the per-point grid search stays gone.
if grep -nE 'fn nearest\(' crates/core/src/build.rs; then
    echo "ci: a second nearest-centre search is back in the bulk build (matches above)" >&2
    exit 1
fi
# Knobs nothing set are constants where they are read: the cost model, the
# branching factor, the coverage threshold, the k-means rounds and the
# admission queue's wait model. The settings they replaced stay gone, as does
# the tracer's clock hook (a query's spans carry its own instant).
if grep -rnE 'pub branching:|cache_coverage_threshold|struct CostModel|max_queue_wait|queue_wait_per_slot|KMeans \{|fn set_clock|fn record_now' \
    crates src tests examples; then
    echo "ci: a knob that became a constant is back (matches above)" >&2
    exit 1
fi
# Stripes by run and one-word queue entries: a node's stripe is its run of
# breadth-first ids (`stripe_slot`), not its id masked, and assembly lays a
# stripe out through the same mapping; the priority queue holds packed
# integer keys, its old struct entries kept only as the test reference they
# are checked against (after a file's column-0 `#[cfg(test)]`).
struct_entries=$(find crates src tests examples -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut && /PqEntry/ { print FILENAME ":" FNR ": " $0 }')
if grep -rnE '& \(CACHE_STRIPES - 1\)|step_by\(CACHE_STRIPES\)' crates src tests examples ||
    [ -n "$struct_entries" ]; then
    echo "${struct_entries}" >&2
    echo "ci: a stripe keyed by masked id or a struct queue entry is back (matches above)" >&2
    exit 1
fi
# One nearest-centre rule, packed: a scan keeps the lowest `(distance_sq,
# index)` as one integer key, and the two-way branch it replaced survives only
# as the test reference it is checked against (after build.rs's column-0
# `#[cfg(test)]`). The router reads a shard's live extent off the LSM's
# memoised fold and never walks the shard itself.
branchy_scan=$(awk '/^#\[cfg\(test\)\]/ { exit } /best\.0/ { print FILENAME ":" FNR ": " $0 }' crates/core/src/build.rs)
shard_walk=$(find crates/engine/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut && /for_each_live_location/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$branchy_scan$shard_walk" ]; then
    printf '%s\n' "$branchy_scan" "$shard_walk" | grep . >&2
    echo "ci: the branchy nearest-centre scan or the router's walk of a shard is back (matches above)" >&2
    exit 1
fi
# The rest of the merge, flat: a k-means hands back one flat list of groups
# and the builder's nodes hold runs of builder-wide lists, not a list each;
# a cell filing halves runs of packed integer keys, not of points compared
# with `total_cmp`; and the core count is asked of the OS in one place, once
# per process (`build::available_cores`).
flat_build=$(awk '/^#\[cfg\(test\)\]/ { exit } /vec!\[Vec::new\(\); k\]|Leaf\(Vec<SensorId>\)|Internal\(Vec<usize>\)|total_cmp/ { print FILENAME ":" FNR ": " $0 }' crates/core/src/build.rs)
core_asks=$(find crates/*/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut && /available_parallelism/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$flat_build" ] || [ "$(printf '%s' "$core_asks" | grep -c .)" -ne 1 ]; then
    printf '%s\n' "$flat_build" "$core_asks" | grep . >&2
    echo "ci: per-group or per-node lists, a float-compared cell filing, or a second core-count ask is back (matches above)" >&2
    exit 1
fi
# The Lloyd loops without data-dependent branches where they were measured to
# cost: `CentreGrid::candidates` writes every centre of its block and moves
# the list's end past the ones it keeps, so no `push` comes back inside it
# (build.rs's non-test lines; the gate fails too if the function is gone).
candidate_push=$(awk '/^#\[cfg\(test\)\]/ { exit }
    /^    fn candidates/ { found = 1; inside = 1 }
    inside && /push/ { print FILENAME ":" FNR ": " $0 }
    inside && /^    }$/ { inside = 0 }
    END { if (!found) print "crates/core/src/build.rs: no CentreGrid::candidates" }' crates/core/src/build.rs)
if [ -n "$candidate_push" ]; then
    echo "$candidate_push" >&2
    echo "ci: a push is back inside CentreGrid::candidates (matches above)" >&2
    exit 1
fi
# One executor, one write-back: a query writes nothing while it runs, and its
# successes reach the caches through one apply (`ColrTree::apply_readings`,
# behind the LSM's directory), the one holder of the multi-chunk fill mark.
# The names of the second mode are in the deleted-path gate above.
if grep -rn 'mark_filling' crates src tests examples | grep -v '^crates/core/src/tree\.rs:'; then
    echo "ci: the fill mark is taken outside the one write-back (matches above)" >&2
    exit 1
fi
# One published cut: a merge's LSM cut is the service's snapshot, published
# once under the state's write lock, so the service keeps no generation,
# reindex lock or mirrored ordinal of its own. `ClockHandle` is the one clock
# and the oversample level is a constant.
if grep -rnE '\bgeneration_counter\b|\breindex_lock\b|\bSimClock\b|with_oversample_level' \
    crates src tests examples; then
    echo "ci: a second publication, clock or oversample knob is back (matches above)" >&2
    exit 1
fi
echo "ci: one-path gate OK"
# Non-test line ratchet: lines under crates/*/src up to each file's first
# column-0 `#[cfg(test)]`, the test-only files slot_cache/reference.rs and
# lsm/tests.rs excluded. That cut must open the file's test module: one on
# anything else (a test-only static, say) would stop the count early and
# leave the rest of the file uncounted. The count may only fall; a change
# that raises it records the new value here and says why in CHANGES.md.
counted() {
    find "$@" -name '*.rs' ! -path '*/slot_cache/reference.rs' ! -path '*/lsm/tests.rs' -print0
}
early=$(counted crates/*/src |
    xargs -0 awk 'FNR == 1 { cut = 0 } cut { if ($0 !~ /^(pub(\([a-z]+\))? )?mod /) print FILENAME ":" FNR; nextfile } /^#\[cfg\(test\)\]/ { cut = 1 }')
if [ -n "$early" ]; then
    echo "ci: a column-0 #[cfg(test)] before the test module cuts the count early at: $early" >&2
    exit 1
fi
max_nontest=17906
nontest=$(counted crates/*/src |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }' |
    awk '{ s += $1 } END { print s }')
if [ "$nontest" -gt "$max_nontest" ]; then
    echo "ci: $nontest non-test lines under crates/*/src, above the recorded $max_nontest" >&2
    exit 1
fi
echo "ci: non-test line ratchet OK ($nontest of $max_nontest)"
# Panic-site ratchet (ROADMAP 6(b)): `.unwrap()`, `.expect(`, `panic!(` and
# `unreachable!(` on the non-test lines of the core and engine crates, cut as
# above. The count may only fall; each site that goes becomes a typed
# `PortalError`, a `debug_assert!` with its invariant written down, or nothing.
max_panics=0
panics=$(counted crates/core/src crates/engine/src |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") } END { print n + 0 }' |
    awk '{ s += $1 } END { print s }')
if [ "$panics" -gt "$max_panics" ]; then
    echo "ci: $panics panic sites on non-test lines of crates/{core,engine}/src, above the recorded $max_panics" >&2
    exit 1
fi
echo "ci: panic-site ratchet OK ($panics of $max_panics)"
# The trend the north star asks for, in every log (32,780 at the parent of PR 20,
# 32,847 at the parent of PR 21, 33,555 at the parent of PR 23, 34,831 at the
# parent of PR 24, 34,983 at the parent of PR 25).
echo "ci: $(find crates src tests examples -name '*.rs' | xargs cat | wc -l) lines of Rust under crates src tests examples"

cargo build --release --offline
cargo test -q --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# Torn-count and regressed-count gate (ROADMAP 1(i) and 1(ii)): the straddle
# test storms one service with eight clients across three merges. A count
# that names no population that existed ("torn answer") is a multi-chunk fill
# seen half-written; a client's count that steps back ("answer regressed") is
# a write-back a merge lost. One run cannot tell: before the fill mark the
# first failed about one run in two, and before the one write-back the second
# one run in 7 to 15, so the binary is built once and run 50 times (~20 s),
# and any failure fails the gate.
straddle=$(cargo test --offline --test service_reindex --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"executable":"\([^"]*service_reindex-[^"]*\)".*/\1/p' | tail -n 1)
[ -x "$straddle" ] || {
    echo "ci: could not find the service_reindex test binary" >&2
    exit 1
}
for run in $(seq 1 50); do
    out=$("$straddle" 2>&1) && continue
    echo "$out" >&2
    echo "ci: service_reindex failed on run $run of 50" >&2
    exit 1
done
echo "ci: torn- and regressed-count gate OK (50 runs)"

# Observability smoke: the example must emit the promised metric families
# and a flight record whose stage totals match `QueryStats`.
smoke=$(cargo run --release --offline -q --example colr-stats)
for metric in colr_query_latency_us colr_tree_cache_hits_total colr_portal_queries_total \
    "parity: stage totals == QueryStats (bit-exact)"; do
    grep -qF "$metric" <<<"$smoke" || {
        echo "ci: $metric missing from colr-stats output" >&2
        exit 1
    }
done
echo "ci: observability smoke OK"

# No orphan metric family (ROADMAP 24): every `"colr_…"` name passed to
# `counter(`, `histogram(` or `per_level(` on the non-test lines of
# crates/*/src (counted as above) must be named, as a whole word, by a test:
# in a file under tests/ or crates/*/tests/, in a test-only file, or below a
# file's column-0 `#[cfg(test)]`. A family no test reads is written on its
# event and never checked, so it goes with its site or earns a test.
families=$(counted crates/*/src |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print }' | tr '\n' ' ' |
    grep -oE '(counter|histogram|per_level)\( *"colr_[a-z0-9_]+' | sed 's/.*"//' | sort -u)
readers=$(find tests crates/*/tests crates/*/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { cut = FILENAME ~ /^(tests|crates\/[^\/]+\/tests)\/|\/slot_cache\/reference\.rs$|\/lsm\/tests\.rs$/ }
        /^#\[cfg\(test\)\]/ { cut = 1 } cut')
orphans=$(for family in $families; do
    grep -qw -- "$family" <<<"$readers" || echo "$family"
done)
if [ -z "$families" ] || [ -n "$orphans" ]; then
    echo "${orphans:-no metric family found under crates/*/src}" >&2
    echo "ci: a metric family no test reads (above)" >&2
    exit 1
fi
echo "ci: every metric family has a reader ($(wc -w <<<"$families") families)"

# Fault-injection smoke: a resilient portal under a regional outage + drift
# must keep answering, open breakers, and track availability (the example
# self-checks and prints the marker only when every invariant holds).
cargo run --release --offline -q --example fault_injection | grep -q "fault_smoke OK" || {
    echo "ci: fault-injection smoke failed" >&2
    exit 1
}
echo "ci: fault-injection smoke OK"

# Quickstart smoke: the front door's first example must keep answering a bare
# count(*) exactly with no probe beside a sampled avg(value) that warms (the
# example self-checks and prints the marker only when every answer holds).
cargo run --release --offline -q --example quickstart | grep -q "quickstart OK" || {
    echo "ci: quickstart smoke failed" >&2
    exit 1
}
echo "ci: quickstart smoke OK"

# Service concurrency smoke: N client threads through one shared one-shard
# router handle during forced reindexes — no panics, no torn
# answers, monotone generation counter (the example self-checks and
# prints the marker only when every invariant holds).
cargo run --release --offline -q --example service_storm | grep -q "service_storm OK" || {
    echo "ci: service storm smoke failed" >&2
    exit 1
}
echo "ci: service storm smoke OK"

# Sharded storm smoke: the same storm scatter-gathered through a 4-shard
# ShardedPortal — boundary registrations rebalanced at merge, and a
# closed shard degrading the merged answer instead of failing it (the
# example self-checks and prints the marker only when every invariant
# holds).
cargo run --release --offline -q --example service_storm -- --shards 4 \
    | grep -q "service_storm sharded OK" || {
    echo "ci: sharded storm smoke failed" >&2
    exit 1
}
echo "ci: sharded storm smoke OK"

# Churn soak: sensor churn as a first-class workload against a small-L0 index —
# a writer thread sustaining >= 2,000 register/retire ops/sec while clients
# query and a merge thread compacts L0 (the example self-checks churn rate,
# exact answers, query-path stalls, and the L0 occupancy bound, printing
# the marker only when every invariant holds).
cargo run --release --offline -q --example service_storm -- --churn \
    | grep -q "service_storm churn OK" || {
    echo "ci: churn soak failed" >&2
    exit 1
}
echo "ci: churn soak OK"

# Hot-path parity smoke, in release (the build that serves): the one query
# walk must reproduce the digests recorded from the deleted pointer walk —
# no answer, statistic or RNG position moved, at 1/2/8 threads — and the
# flat-scan oracle must find Theorems 1 and 2 holding through
# ShardedPortal::execute across LSM levels, tombstones, shards and retries.
cargo test -q --release --offline -p colr-repro --test hotpath_parity --test sampling_properties
# The bulk build, in release too: the trees and shard map recorded before the
# assignment step became a search are case (f) of hotpath_parity above; here
# the all-centres reference checks the one search, the per-cell candidate
# lists `lloyd_from` assigns with in every round, the first included (groups
# and the RNG's next draw, lattice ties, duplicates, one-point cells, far and
# non-finite coordinates), from the cold start, from any given centres and
# from start centres as a merge seeds them (duplicated, non-finite, topped up
# by draws when too few) — beside the build RNG's recorded positions and the
# <= 64 distances per point per round the search evaluates.
cargo test -q --release --offline -p colr-tree --lib build::
# The walk's queue and stripes, in release too: the packed queue against the
# struct heap it replaced (pushes, pops and redistribution over equal bases,
# signed zeros, subnormals, infinities and NaNs), and the stripe mapping a
# bijection onto dense positions that keeps child runs together.
cargo test -q --release --offline -p colr-tree --lib -- sampling:: tree::tests::
echo "ci: hot-path parity smoke OK"

# The paper's figures as a gated, generated artifact (ROADMAP 3). Every claim
# row of EXPERIMENTS.md is a band `experiments` checks after each run, and a
# gated miss exits 1: at the default scale (40k sensors) the shape bands of
# Figs 2-7, at the paper's 370k sensors (`--full`) the paper's own bands on
# Fig 3's cached nodes and the headline. The rest of `all --full` stays out
# of CI. Each run writes its console tables as `<name>.txt`, and each
# measured block of EXPERIMENTS.md (the fenced block under an
# `<!-- experiments: NAME -->` marker) must equal `NAME.txt` byte for byte.
figures=target/experiments
experiments() {
    local log
    log=$(cargo run --release --offline -q -p colr-bench --bin experiments -- "$@") || {
        sed -n '/^== Claims/,$p' <<<"$log" >&2
        echo "ci: experiments $* missed a gated band (or failed)" >&2
        exit 1
    }
}
experiments all --out "$figures"
experiments fig3 --full --out "$figures/full"
experiments headline --full --out "$figures/full"
for block in fig2 fig3 fig4 fig5 fig6 fig7 headline full/fig3 full/headline; do
    awk -v marker="<!-- experiments: $block -->" '
        $0 == marker { found = 1; next }
        found && /^```/ { if (body) exit; body = 1; next }
        body' EXPERIMENTS.md | diff -u - "$figures/$block.txt" || {
        echo "ci: EXPERIMENTS.md's '$block' block differs from $figures/$block.txt; copy the run's table in" >&2
        exit 1
    }
done
echo "ci: paper claims and generated EXPERIMENTS.md blocks OK"

# Benchmark runner gate: the ruler's own tests (its --quick smoke and the
# BENCHMARK.json catalogue check), then a quick live_local run that must pass
# its per-answer audit (exit 0) and pay at most one probe wave per query —
# select -> collect -> complete sends a request's probes out together.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# No dependency edge of a crate the runner links may change under it.
git diff --exit-code benchmark/Cargo.lock
live_local=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload live_local --trace 0 --seconds 2)
waves=$(awk '$1 == "info" && $2 == "waves_per_query" { print $3 }' <<<"$live_local")
awk -v w="$waves" 'BEGIN { exit !(w != "" && w + 0 <= 1.0) }' || {
    echo "ci: live_local pays ${waves:-?} probe waves per query (want <= 1)" >&2
    exit 1
}
echo "ci: benchmark runner gate OK (waves_per_query=$waves)"
# Write-back stays allocation-free per node and per slot: one flat run list
# from pooled buffers, no eviction set, and a slot opened in a node's ring is
# a cell written, not a `by_kind` vector allocated. The runner's allocator
# counts, so the value repeats exactly for a seed: at --quick the parent of
# PR 18 prints allocs_per_query = 54.7750, the flat write-back 29.1125 and the
# flat slabs 19.7125 (142.67 -> 60.13 -> 19.61 at full scale), and 19.1125
# since PR 24 pooled the batch of successes awaiting write-back (18.66). The
# gate sits at three quarters of the value the parent of PR 23 prints.
allocs=$(awk '$1 == "info" && $2 == "allocs_per_query" { print $3 }' <<<"$live_local")
awk -v a="$allocs" 'BEGIN { exit !(a != "" && a + 0 <= 21.83) }' || {
    echo "ci: live_local allocates ${allocs:-?} times per query (want <= 21.83; 29.11 before the flat slabs)" >&2
    exit 1
}
echo "ci: write-back allocation gate OK (allocs_per_query=$allocs)"
# Covered subtrees stay on: a warm wide request without CLUSTER ends its walk
# at contained nodes whose own slot caches cover them. At --quick (2,000
# sensors over 8 shards, so a shard's tree is a root, ~3 internal nodes and
# ~25 leaves) the parent of PR 17 prints tree.nodes_per_query = 50.00 and the
# covered walk 31.34, exactly, every run; at full scale it is 820 -> 142.
# Half the parent's value is not reachable on trees this shallow, so the gate
# sits at three quarters of it.
nodes=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload routed_wide --trace 1 --seconds 2 |
    awk '$1 == "tree.nodes_per_query" { print $2 }')
awk -v n="$nodes" 'BEGIN { exit !(n != "" && n + 0 < 37.5) }' || {
    echo "ci: routed_wide visits ${nodes:-?} nodes per query (want < 37.5; 50.00 before covered subtrees)" >&2
    exit 1
}
echo "ci: covered-subtree gate OK (tree.nodes_per_query=$nodes)"
# The two zero-probe workloads: the runner's own audit fails a warm request
# that probes, so exit 0 is the gate.
warm_pan=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload warm_pan --trace 0 --seconds 2)
echo "ci: benchmark warm_pan smoke OK"
# A warm answer's vectors start at the size the thread's last answers reached
# instead of growing from nothing. At --quick the parent of PR 23 prints
# allocs_per_query = 17.8852 and the pre-sized walk 15.7336 (22.35 -> 15.51 at
# full scale). Three quarters of the parent's value (13.41) is not reachable
# here: 9 of the allocations are the parser's, 2 the router's (its claim
# list, its one-element outcome list), 2 the service's (the group views, the
# histogram of an answer that carries raw readings) and 2 the answer's own
# `groups` and `readings`, plus what a vector still grows past its hint; the
# gate sits halfway between the two prints, where the growth coming back
# trips it. None is the LSM layer's: its split, selections and wire are
# pooled beside the plan (15.7500 through the one executor; with them
# unpooled it printed 20.73 and tripped this gate).
allocs=$(awk '$1 == "info" && $2 == "allocs_per_query" { print $3 }' <<<"$warm_pan")
awk -v a="$allocs" 'BEGIN { exit !(a != "" && a + 0 <= 16.81) }' || {
    echo "ci: warm_pan allocates ${allocs:-?} times per query (want <= 16.81; 17.89 before the pre-sized result vectors)" >&2
    exit 1
}
echo "ci: warm-path allocation gate OK (allocs_per_query=$allocs)"
routed_wide=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload routed_wide --trace 0 --seconds 2)
echo "ci: benchmark routed_wide smoke OK"
# A shard visited costs the layered executor no vector of its own, and the
# router's split is written into the claim list it already holds. At --quick
# the parent of PR 24 prints allocs_per_query = 31.5750 (its fresh shards
# took a forward around the layer); the one executor with its per-request
# vectors unpooled printed 50.5750, pooled it prints 28.7750. The gate sits
# at the parent's print.
allocs=$(awk '$1 == "info" && $2 == "allocs_per_query" { print $3 }' <<<"$routed_wide")
awk -v a="$allocs" 'BEGIN { exit !(a != "" && a + 0 <= 31.575) }' || {
    echo "ci: routed_wide allocates ${allocs:-?} times per query (want <= 31.575; 50.58 with the layer's vectors unpooled)" >&2
    exit 1
}
echo "ci: fan-out allocation gate OK (allocs_per_query=$allocs)"

# The write path: an unthrottled register/retire writer with inline merges
# beside the paced reader. Exit 0 = the books balance after the drain (live
# count and an over-asking full-extent count(*) exact, no request failed).
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload churn_mix --trace 0 --seconds 2 >/dev/null
echo "ci: benchmark churn_mix smoke OK"
# A merge's leaves stay tight: its leaf k-means starts from the absorbed
# levels' live leaf centroids and runs 3 Lloyd rounds, not 8. That shows in
# the nodes a read visits, but not at --quick, where the reads race a writer
# whose merge count sets the index size (the same binary prints 14.8-23.1
# there). At full scale it holds to a few tenths: merges that start cold and
# run 8 rounds print nodes_per_query = 83.15-83.37, cold and 3 rounds
# 83.50-83.70, seeded and 3 rounds 82.00-82.18 (1, 2 and 15 s runs). The
# gate sits below every cold print.
nodes=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload churn_mix --trace 0 --seconds 1 |
    awk '$1 == "info" && $2 == "nodes_per_query" { print $3 }')
awk -v n="$nodes" 'BEGIN { exit !(n != "" && n + 0 <= 83.0) }' || {
    echo "ci: churn_mix visits ${nodes:-?} nodes per query (want <= 83.0; 83.15-83.37 with cold-start merges)" >&2
    exit 1
}
echo "ci: seeded-merge leaf gate OK (nodes_per_query=$nodes)"

# Docs gate: rustdoc must build warning-free for every first-party crate
# (vendored stand-in crates are exempt, hence the explicit -p list).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q \
    -p colr-geo -p colr-telemetry -p colr-tree -p colr-sensors \
    -p colr-workload -p colr-relstore -p colr-engine -p colr-bench \
    -p colr-repro
echo "ci: docs gate OK"

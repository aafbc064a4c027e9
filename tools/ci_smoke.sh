#!/usr/bin/env bash
# Release-build smoke suite for the CLI and the serving stack, extracted from
# .github/workflows/ci.yml so the exact checks CI runs are runnable locally:
#
#   tools/ci_smoke.sh                     # everything, against ./build
#   tools/ci_smoke.sh --build-dir out     # everything, against ./out
#   tools/ci_smoke.sh cli coldtier        # selected sections, in this order
#
# Sections (the default runs all of them, in this order):
#   cli       build/query/verify/snapshot/serve round trips (verify must
#             count each entry once), a 4-thread build byte-identical to the
#             sequential one, 40-level road and social graphs built in
#             hybrid and tree order byte-identical at 1 and 4 threads and
#             verified, one answer CRC across the flat,
#             compressed, cold-tier, even-sharded and planned-sharded
#             backends, and a local --topk=-1 refused
#   crash     a `build` crashed at the snapshot commit point leaves the old
#             file byte-identical and still serving
#   net       TCP serving: query families over a live socket, graph-less
#             server refuses kPath cleanly, out-of-range --max-batch and
#             --retries and the retired --timeout-ms are refused
#   reactors  SO_REUSEPORT per-core serving answers match
#   live      delta + offline update + SIGHUP hot reload that keeps the
#             cache scoped to the delta, crash-safe update
#   manifest  planned shard set served over TCP, SIGTERM graceful drain
#   degraded  corrupt shard: strict open refuses, --quarantine reports the
#             batch that touches it as refused, --fallback-graph answers it
#   coldtier  memory-capped cold-tier proof: under a ulimit -v cap the flat
#             snapshot cannot even mmap while --cold-tier answers 20k
#             verified queries with the flat backend's exact answer CRC
#
# Sections reuse fixtures written by earlier ones; every section makes the
# fixtures it needs, so any subset works. `degraded` corrupts the planned
# shard set in place, so run it after (or instead of) `manifest`.
set -euo pipefail

BUILD_DIR=build
SECTIONS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --build-dir=*) BUILD_DIR=${1#*=}; shift ;;
    -h|--help)
      sed -n '2,34p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) SECTIONS+=("$1"); shift ;;
  esac
done

CLI=$BUILD_DIR/wcsd_cli
if [ ! -x "$CLI" ]; then
  echo "ci_smoke: $CLI not found (build the Release tree first)" >&2
  exit 1
fi

banner() { printf '\n=== ci_smoke: %s ===\n' "$1"; }

# Pulls the answer CRC out of a `serve` batch report; the same --seed over
# the same snapshot contents must produce the same CRC on every backend.
crc_of() { sed -n 's/.*answers crc32c=\([0-9a-f]*\).*/\1/p'; }

# Prints a command's report on stderr and passes it on through stdout. (A
# `tee /dev/stderr` would truncate a stderr redirected to a file.)
report_of() {
  local report
  report=$("$@")
  printf '%s\n' "$report" >&2
  printf '%s\n' "$report"
}

# The answer CRC of one `serve` batch run, its report shown on stderr.
serve_crc() { report_of "$CLI" serve "$@" | crc_of; }

# Pulls the entry count out of a `stats` or `verify` report (entries=N).
entries_of() { sed -n 's/^entries=\([0-9]*\) .*/\1/p'; }

# verify_counts GRAPH INDEX ENTRIES: `verify` passes INDEX and counts each
# of its ENTRIES entries once, as `build` or `stats` reported them.
verify_counts() {
  local counted
  counted=$(report_of "$CLI" verify --graph="$1" --index="$2" | entries_of)
  if [ "$counted" != "$3" ]; then
    echo "verify counted ${counted:-no} entries in $2, which has $3" >&2
    exit 1
  fi
}

# Base fixtures shared by every section: a small road graph, its snapshot,
# a compressed re-encoding, and an even and a planned (label-mass-balanced)
# 3-shard set. Idempotent.
make_fixtures() {
  if [ ! -f ci.wcsnap ]; then
    "$CLI" generate --out=ci.edges --kind=road --n=400 --levels=5
    "$CLI" build --graph=ci.edges --index=ci.wcsnap --threads=0
  fi
  [ -f ci_c.wcsnap ] || "$CLI" snapshot --index=ci.wcsnap --out=ci_c.wcsnap --compress
  [ -f ci_even.manifest ] || "$CLI" shard --index=ci.wcsnap --out=ci_even --shards=3 --even
  [ -f ci_planned.manifest ] || "$CLI" shard --index=ci.wcsnap --out=ci_planned --shards=3
}

section_cli() {
  banner "CLI round trips"
  make_fixtures
  "$CLI" query --index=ci.wcsnap --s=1 --t=42 --w=2
  "$CLI" query --index=ci.wcsnap --s=1 --w=2 --topk=5
  "$CLI" query --index=ci.wcsnap --s=1 --t=42 --profile --thresholds=1,2,3,4,5
  "$CLI" query --index=ci.wcsnap --s=1 --t=42 --w=2 --path --graph=ci.edges
  for index in ci.wcsnap ci_c.wcsnap; do
    verify_counts ci.edges "$index" \
      "$(report_of "$CLI" stats --index="$index" | entries_of)"
  done
  "$CLI" serve --snapshot=ci.wcsnap --queries=20000 --threads=2 --verify
  "$CLI" serve --snapshot=ci.wcsnap --queries=20000 --threads=2 --cache-mb=8
  "$CLI" serve --manifest=ci_even.manifest --queries=20000
  "$CLI" serve --snapshot=ci.wcsnap --verify-level=directory --queries=1000
  "$CLI" serve --manifest=ci_planned.manifest --queries=20000 --verify --cache-mb=8
  "$CLI" query --manifest=ci_planned.manifest --s=1 --t=42 --w=2 --cache-mb=4
  "$CLI" query --manifest=ci_planned.manifest --s=1 --w=2 --topk=5
  "$CLI" query --manifest=ci_planned.manifest --s=1 --t=42 --profile --thresholds=1,2,3,4,5
  "$CLI" query --manifest=ci_planned.manifest --s=1 --t=42 --w=2 --path --graph=ci.edges
  # A negative --topk is refused locally, as over the wire, instead of
  # silently answering a distance query.
  if "$CLI" query --index=ci.wcsnap --s=1 --t=42 --w=2 --topk=-1; then
    echo "query unexpectedly accepted --topk=-1"
    exit 1
  fi

  banner "parallel build is byte-identical to the sequential one"
  "$CLI" build --graph=ci.edges --index=ci_tree1.wcsnap --order=tree --threads=1
  "$CLI" build --graph=ci.edges --index=ci_tree4.wcsnap --order=tree --threads=4 --batch=3
  cmp ci_tree1.wcsnap ci_tree4.wcsnap

  banner "40-level graphs: parallel builds byte-identical and verified"
  # A root here meets more constraints than the builder keeps cover
  # tables, so tables are replaced mid-root.
  "$CLI" generate --out=ci_road40.edges --kind=road --n=150 --levels=40
  "$CLI" generate --out=ci_social40.edges --kind=social --n=150 --levels=40
  for graph in road40 social40; do
    for order in hybrid tree; do
      stem=ci_${graph}_$order
      built=$(report_of "$CLI" build --graph="ci_$graph.edges" \
        --index="${stem}1.wcsnap" --order="$order" --threads=1)
      "$CLI" build --graph="ci_$graph.edges" --index="${stem}4.wcsnap" \
        --order="$order" --threads=4 --batch=3
      cmp "${stem}1.wcsnap" "${stem}4.wcsnap"
      verify_counts "ci_$graph.edges" "${stem}1.wcsnap" \
        "$(printf '%s\n' "$built" | sed -n 's/.* \([0-9]*\) entries,.*/\1/p')"
    done
  done

  banner "flat, compressed, cold-tier and shard-set answer CRCs"
  flat_crc=$(serve_crc --snapshot=ci.wcsnap --queries=20000 --seed=11 --verify)
  comp_crc=$(serve_crc --snapshot=ci_c.wcsnap --queries=20000 --seed=11 --verify)
  cold_crc=$(serve_crc --snapshot=ci_c.wcsnap --cold-tier --decode-cache-mb=8 \
    --queries=20000 --seed=11 --verify)
  even_crc=$(serve_crc --manifest=ci_even.manifest --queries=20000 --seed=11 --verify)
  planned_crc=$(serve_crc --manifest=ci_planned.manifest --queries=20000 --seed=11 --verify)
  # A compressed planned shard set serves the same workload bit-identically.
  [ -f ci_cplanned.manifest ] || "$CLI" shard --index=ci_c.wcsnap --out=ci_cplanned --shards=3 --compress
  cshard_crc=$(serve_crc --manifest=ci_cplanned.manifest --queries=20000 --seed=11 --verify)
  test -n "$flat_crc"
  for crc in "$comp_crc" "$cold_crc" "$even_crc" "$planned_crc" "$cshard_crc"; do
    test "$flat_crc" = "$crc"
  done
  # --cold-tier on an uncompressed snapshot must be refused, not silently flat.
  if "$CLI" serve --snapshot=ci.wcsnap --cold-tier --queries=100; then
    echo "cold-tier serving unexpectedly accepted an uncompressed snapshot"
    exit 1
  fi
}

section_crash() {
  banner "crash-safe snapshot rewrite"
  make_fixtures
  cp ci.wcsnap ci_before.wcsnap
  set +e
  WCSD_FAILPOINTS="atomic_file.rename=crash" \
    "$CLI" build --graph=ci.edges --index=ci.wcsnap --threads=0
  status=$?
  set -e
  test "$status" -eq 42
  cmp ci.wcsnap ci_before.wcsnap
  # The crash fired before the rename: the staged temp file is the only
  # debris, and the commit point was never reached.
  ls ci.wcsnap.tmp.* >/dev/null
  rm -f ci.wcsnap.tmp.*
  "$CLI" serve --snapshot=ci.wcsnap --queries=5000 --verify
  # Recovery: a clean rewrite over the survivor must succeed; re-encoding
  # the compressed twin back to flat reproduces the build's bytes.
  "$CLI" snapshot --index=ci_c.wcsnap --out=ci.wcsnap
  cmp ci.wcsnap ci_before.wcsnap
  "$CLI" serve --snapshot=ci.wcsnap --queries=5000 --verify
}

section_net() {
  banner "network serving"
  make_fixtures
  "$CLI" serve --snapshot=ci.wcsnap --listen=39117 --threads=2 --cache-mb=8 \
    --graph=ci.edges \
    --idle-timeout-ms=20000 --header-timeout-ms=5000 --request-deadline-ms=10000 \
    --max-seconds=30 &
  server_pid=$!
  sleep 2
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --w=2 --deadline-ms=5000 --retries=2
  "$CLI" query --connect=127.0.0.1:39117 --s=0 --t=399 --w=5
  # The three v6 query families, round-tripped over the live socket.
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --w=2 --topk=5
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --profile --thresholds=1,2,3,4,5
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --w=2 --path
  # --deadline-ms replaced the per-syscall --timeout-ms.
  if "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --w=2 --timeout-ms=100; then
    echo "query unexpectedly accepted the retired --timeout-ms"
    exit 1
  fi
  # The retry count is 32-bit; a wider --retries must be refused, not
  # wrapped to 0.
  if "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --w=2 --retries=4294967296; then
    echo "query unexpectedly accepted --retries=4294967296"
    exit 1
  fi
  kill -INT "$server_pid"
  wait "$server_pid"
  # The admission limit is 32-bit; a wider --max-batch must be refused,
  # not wrapped to 0 ("no limit").
  if "$CLI" serve --snapshot=ci.wcsnap --listen=0 --max-batch=4294967296 --max-seconds=1; then
    echo "serve unexpectedly accepted --max-batch=4294967296"
    exit 1
  fi
  # A server started WITHOUT --graph must refuse kPath frames cleanly
  # (kNotSupported), not drop the connection.
  "$CLI" serve --snapshot=ci.wcsnap --listen=39121 --max-seconds=30 &
  server_pid=$!
  sleep 2
  if "$CLI" query --connect=127.0.0.1:39121 --s=1 --t=42 --w=2 --path; then
    echo "graph-less server unexpectedly served a path"
    exit 1
  fi
  "$CLI" query --connect=127.0.0.1:39121 --s=1 --t=42 --w=2
  kill -INT "$server_pid"
  wait "$server_pid"
}

section_reactors() {
  banner "per-core serving (--reactors 2)"
  make_fixtures
  "$CLI" serve --snapshot=ci.wcsnap --listen=39120 --reactors=2 \
    --cache-mb=8 --max-seconds=30 &
  server_pid=$!
  sleep 2
  "$CLI" query --connect=127.0.0.1:39120 --s=1 --t=42 --w=2
  "$CLI" query --connect=127.0.0.1:39120 --s=0 --t=399 --w=5
  kill -INT "$server_pid"
  wait "$server_pid"
}

section_live() {
  banner "live-update serving (delta + update + hot reload)"
  make_fixtures
  cp ci.wcsnap ci_live.wcsnap
  cp ci.edges ci_live.edges
  # The server's report goes to a file and is checked once it has exited.
  "$CLI" serve --snapshot=ci_live.wcsnap --listen=39119 --watch \
    --cache-mb=4 --delta=ci.delta --max-seconds=60 > live_server.out &
  server_pid=$!
  sleep 2
  dist() { "$CLI" query --connect=127.0.0.1:39119 --s=1 --t=42 --w=2 \
    | sed -E 's/.*\) = ([0-9]+|inf).*/\1/'; }
  before=$(dist)
  echo "before: dist = $before"
  "$CLI" delta --out=ci.delta --base-snapshot=ci_live.wcsnap --add=1,42,5
  "$CLI" update --snapshot=ci_live.wcsnap --graph=ci_live.edges \
    --delta=ci.delta --out=ci_live.wcsnap --out-graph=ci_live.edges
  kill -HUP "$server_pid"
  sleep 2
  after=$(dist)
  echo "after: dist = $after"
  # The inserted quality-5 edge makes dist(1, 42 | w >= 2) = 1.
  test "$before" != "$after"
  test "$after" = "1"
  kill -INT "$server_pid"
  wait "$server_pid" || true
  cat live_server.out >&2
  # The reload kept the cache, scoped to ci.delta: exactly one scoped
  # invalidation, and it dropped the cached (1, 42) interval the new edge
  # touches — so the `after = 1` above was recomputed, not served stale.
  test "$(grep -c 'delta-scoped invalidation dropped' live_server.out)" -eq 1
  dropped=$(sed -n 's/.*delta-scoped invalidation dropped \([0-9][0-9]*\) interval.*/\1/p' live_server.out)
  test -n "$dropped"
  test "$dropped" -ge 1
  # Crash safety: an update that dies at the rename commit point
  # (deterministic failpoint, exit 42) leaves the old snapshot
  # byte-identical.
  cp ci_live.wcsnap ci_live_before.wcsnap
  "$CLI" delta --out=ci2.delta --base-snapshot=ci_live.wcsnap --add=5,200,4
  set +e
  WCSD_FAILPOINTS="atomic_file.rename=crash" \
    "$CLI" update --snapshot=ci_live.wcsnap --graph=ci_live.edges \
      --delta=ci2.delta --out=ci_live.wcsnap
  status=$?
  set -e
  test "$status" -eq 42
  cmp ci_live.wcsnap ci_live_before.wcsnap
  rm -f ci_live.wcsnap.tmp.*
  # A delta authored against a superseded snapshot must be refused.
  if "$CLI" update --snapshot=ci.wcsnap --graph=ci.edges \
      --delta=ci2.delta --out=ci_stale.wcsnap; then
    echo "update unexpectedly accepted a mismatched base fingerprint"
    exit 1
  fi
  # The compressed twin carries the same content: a delta authored against
  # it updates either encoding to the same bytes.
  "$CLI" delta --out=ci3.delta --base-snapshot=ci_c.wcsnap --add=5,200,4
  "$CLI" update --snapshot=ci_c.wcsnap --graph=ci.edges --delta=ci3.delta --out=ci_up_c.wcsnap
  "$CLI" update --snapshot=ci.wcsnap --graph=ci.edges --delta=ci3.delta --out=ci_up.wcsnap
  cmp ci_up.wcsnap ci_up_c.wcsnap
}

section_manifest() {
  banner "manifest-sharded network serving"
  make_fixtures
  "$CLI" serve --manifest=ci_planned.manifest --listen=39118 --threads=2 \
    --drain-ms=3000 --max-seconds=30 &
  server_pid=$!
  sleep 2
  "$CLI" query --connect=127.0.0.1:39118 --s=1 --t=42 --w=2
  "$CLI" query --connect=127.0.0.1:39118 --s=0 --t=399 --w=5
  kill -TERM "$server_pid"
  wait "$server_pid"
}

section_degraded() {
  banner "degraded serving (quarantined shard)"
  make_fixtures
  printf 'XXXXXXXX' | dd of=ci_planned.shard1 bs=1 seek=24 conv=notrunc
  if "$CLI" serve --manifest=ci_planned.manifest --queries=1000; then
    echo "strict open unexpectedly succeeded on a corrupt shard"
    exit 1
  fi
  "$CLI" serve --manifest=ci_planned.manifest --quarantine --queries=20000 | tee degraded.out
  grep -q "DEGRADED: 1 of 3 shards quarantined" degraded.out
  # The random batch touches the quarantined range, so it is refused whole:
  # reported as refused, with no throughput figure and no answer CRC.
  grep -q "refused the batch of 20000 queries: it touches a quarantined shard range" degraded.out
  if grep -q "answers crc32c" degraded.out; then
    echo "a refused batch was reported as answered"
    exit 1
  fi
  "$CLI" serve --manifest=ci_planned.manifest --quarantine \
    --fallback-graph=ci.edges --queries=20000 | tee fallback.out
  grep -q "answered online via the fallback graph" fallback.out
  # The fallback answers every query: some are reachable, and the run has a CRC.
  reachable=$(sed -n 's/.*, \([0-9][0-9]*\) reachable,.*/\1/p' fallback.out)
  test -n "$reachable"
  test "$reachable" -gt 0
  test -n "$(crc_of < fallback.out)"
}

# Runs a command under the cold-tier section's address-space cap (the
# ulimit applies inside the subshell only).
capped() { (ulimit -v "$CAP_KB" && "$@"); }

# Memory-capped cold-tier smoke. The ~20k-vertex road index carries ~5.7M
# label entries: ~94 MiB as a flat snapshot, ~19 MiB compressed. Under a
# 64 MiB `ulimit -v` cap (RLIMIT_AS counts file-backed mmap) the flat
# snapshot cannot even map, while --cold-tier pages compressed groups in
# on demand and answers 20k --verify'd queries whose CRC matches the
# uncapped flat backend exactly.
section_coldtier() {
  banner "memory-capped cold-tier serving"
  CAP_KB=65536
  if [ ! -f mem.wcsnap ]; then
    "$CLI" generate --out=mem.edges --kind=road --n=20000 --levels=5
    "$CLI" build --graph=mem.edges --index=mem.wcsnap --threads=0
  fi
  [ -f mem_c.wcsnap ] || "$CLI" snapshot --index=mem.wcsnap --out=mem_c.wcsnap --compress
  ls -la mem.wcsnap mem_c.wcsnap
  # Reference answers from the uncapped flat backend.
  flat_crc=$(serve_crc --snapshot=mem.wcsnap --queries=20000 --seed=7 --verify)
  test -n "$flat_crc"
  # Both capped runs use one pool thread: the default of one per core adds
  # thread stacks and malloc arenas that overrun the cap on multi-core
  # hosts whatever the snapshot.
  # The flat snapshot must not fit under the cap: the working set IS the cap's
  # point.
  if capped "$CLI" serve --snapshot=mem.wcsnap --threads=1 --queries=100 --seed=7; then
    echo "flat serving unexpectedly fit under the ${CAP_KB} kB cap"
    exit 1
  fi
  # Cold-tier serving under the same cap answers the full workload,
  # --verify clean, with the exact flat-backend CRC.
  cold_out=$(report_of capped "$CLI" serve --snapshot=mem_c.wcsnap \
    --cold-tier --decode-cache-mb=8 --threads=1 --queries=20000 --seed=7 \
    --verify)
  cold_crc=$(printf '%s\n' "$cold_out" | crc_of)
  test "$flat_crc" = "$cold_crc"
  # Distance queries stream the mmap'd varint bytes: the reported cold
  # page-ins must be nonzero.
  pageins=$(printf '%s\n' "$cold_out" | sed -n 's/.* \([0-9][0-9]*\) cold page-ins.*/\1/p')
  test -n "$pageins"
  test "$pageins" -gt 0
}

ALL_SECTIONS=(cli crash net reactors live manifest degraded coldtier)
if [ ${#SECTIONS[@]} -eq 0 ]; then
  SECTIONS=("${ALL_SECTIONS[@]}")
fi
for section in "${SECTIONS[@]}"; do
  case " ${ALL_SECTIONS[*]} " in
    *" $section "*) "section_$section" ;;
    *) echo "ci_smoke: unknown section '$section'" >&2; exit 1 ;;
  esac
done
printf '\nci_smoke: all sections passed: %s\n' "${SECTIONS[*]}"

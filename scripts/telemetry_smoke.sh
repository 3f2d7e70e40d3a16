#!/usr/bin/env sh
# telemetry_smoke.sh — end-to-end check of the telemetry endpoint.
#
# Phase 1 runs a small simulation with -telemetry-addr on an
# ephemeral port, waits for the endpoint to come up, and asserts that
# /healthz reports ok and /metrics exposes the key crawl series with
# non-zero values. Phase 2 boots crawld in self-serve -sim mode, submits
# a job over HTTP, polls it to completion, and asserts the job API and
# the telemetry surface answer on the same port. Exercises the whole
# chain: engine instrumentation -> registry -> HTTP exposition. Pure
# POSIX sh + curl; no test framework.
set -eu

workdir=$(mktemp -d)
simpid=
crawldpid=
trap 'kill "$simpid" "$crawldpid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/simcrawl" ./cmd/simcrawl

# The linger keeps the endpoint alive after the (fast) simulated crawl
# finishes, so the scrape below races nothing.
"$workdir/simcrawl" -preset thai -pages 3000 -max 2000 \
    -telemetry-addr 127.0.0.1:0 -telemetry-linger 30s \
    >"$workdir/out.log" 2>&1 &
simpid=$!

addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's|^telemetry on http://\([^/]*\)/.*|\1|p' "$workdir/out.log")
    [ -n "$addr" ] && break
    kill -0 "$simpid" 2>/dev/null || { echo "simcrawl exited early:"; cat "$workdir/out.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "telemetry endpoint never announced"; cat "$workdir/out.log"; exit 1; }
echo "telemetry endpoint: $addr"

health=$("${CURL:-curl}" -fsS "http://$addr/healthz")
echo "healthz: $health"
case $health in
*'"status":"ok"'*) ;;
*) echo "healthz did not report ok"; exit 1 ;;
esac

"${CURL:-curl}" -fsS "http://$addr/metrics" >"$workdir/metrics.txt"

# Key series must be present, and the crawl counters non-zero: the run
# above crawls 2000 pages, so zeros mean the wiring is broken.
for series in \
    langcrawl_sim_pages_total \
    langcrawl_sim_relevant_total \
    langcrawl_frontier_push_total \
    langcrawl_frontier_pop_total \
    langcrawl_uptime_seconds; do
    grep -q "^$series" "$workdir/metrics.txt" || {
        echo "missing series $series in /metrics:"; cat "$workdir/metrics.txt"; exit 1;
    }
done
pages=$(awk '$1 == "langcrawl_sim_pages_total" { print $2 }' "$workdir/metrics.txt")
[ "${pages%.*}" -ge 2000 ] || { echo "langcrawl_sim_pages_total = $pages, want >= 2000"; exit 1; }
for series in langcrawl_frontier_push_total langcrawl_frontier_pop_total; do
    n=$(awk -v s="$series" '$1 == s { print $2 }' "$workdir/metrics.txt")
    [ "${n%.*}" -gt 0 ] || { echo "$series = $n, want > 0"; exit 1; }
done

"${CURL:-curl}" -fsS "http://$addr/debug/vars" | grep -q langcrawl_sim_pages_total || {
    echo "/debug/vars missing the pages counter"; exit 1;
}

echo "telemetry smoke: OK (pages=$pages)"

# --- phase 2: crawld serves jobs and telemetry on one listener ---------------

go build -o "$workdir/crawld" ./cmd/crawld

"$workdir/crawld" -addr 127.0.0.1:0 -dir "$workdir/crawld-state" \
    -sim -sim-pages 300 -executors 1 \
    >"$workdir/crawld.log" 2>&1 &
crawldpid=$!

caddr=
for _ in $(seq 1 100); do
    caddr=$(sed -n 's|^crawld on http://\([^/]*\)/.*|\1|p' "$workdir/crawld.log")
    [ -n "$caddr" ] && break
    kill -0 "$crawldpid" 2>/dev/null || { echo "crawld exited early:"; cat "$workdir/crawld.log"; exit 1; }
    sleep 0.1
done
[ -n "$caddr" ] || { echo "crawld endpoint never announced"; cat "$workdir/crawld.log"; exit 1; }
echo "crawld endpoint: $caddr"

chealth=$("${CURL:-curl}" -fsS "http://$caddr/healthz")
case $chealth in
*'"status":"ok"'*) ;;
*) echo "crawld healthz did not report ok: $chealth"; exit 1 ;;
esac

# The -sim banner names a valid seed URL for the generated space.
seed=$(sed -n 's|^submit seeds like: "\(.*\)"$|\1|p' "$workdir/crawld.log")
[ -n "$seed" ] || { echo "crawld never announced a sim seed"; cat "$workdir/crawld.log"; exit 1; }

job=$("${CURL:-curl}" -fsS "http://$caddr/jobs" \
    -d "{\"tenant\":\"smoke\",\"seeds\":[\"$seed\"],\"max_pages\":50}")
echo "submitted: $job"
id=$(printf '%s' "$job" | sed -n 's|.*"id": *"\([0-9]*\)".*|\1|p')
[ -n "$id" ] || { echo "submission returned no job id"; exit 1; }

status=
for _ in $(seq 1 200); do
    status=$("${CURL:-curl}" -fsS "http://$caddr/jobs/$id" | sed -n 's|.*"status": *"\([a-z]*\)".*|\1|p')
    [ "$status" = done ] && break
    case $status in failed|canceled) echo "job ended $status"; exit 1 ;; esac
    sleep 0.1
done
[ "$status" = done ] || { echo "job stuck at '$status'"; exit 1; }

"${CURL:-curl}" -fsS "http://$caddr/jobs/$id/results?format=crawlog" >"$workdir/job.crawlog"
[ -s "$workdir/job.crawlog" ] || { echo "crawlog download empty"; exit 1; }

# The job counters and the crawl counters flow through the same /metrics.
"${CURL:-curl}" -fsS "http://$caddr/metrics" >"$workdir/cmetrics.txt"
for series in \
    langcrawl_jobs_submitted_total \
    langcrawl_jobs_admitted_total \
    langcrawl_jobs_completed_total \
    langcrawl_crawl_pages_total; do
    grep -q "^$series" "$workdir/cmetrics.txt" || {
        echo "missing series $series in crawld /metrics:"; cat "$workdir/cmetrics.txt"; exit 1;
    }
done
completed=$(awk '$1 == "langcrawl_jobs_completed_total" { print $2 }' "$workdir/cmetrics.txt")
[ "${completed%.*}" -ge 1 ] || { echo "langcrawl_jobs_completed_total = $completed, want >= 1"; exit 1; }

echo "crawld smoke: OK (job $id done, completed=$completed)"

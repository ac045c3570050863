#!/usr/bin/env bash
# Determinism audit: run asdsim_cli twice with identical options and
# byte-compare everything it produces — stats JSON, per-epoch
# telemetry CSV, JSON and Chrome trace, and stdout. Any diff means a nondeterminism bug
# (unseeded randomness, unordered-container iteration order, ...).
#
# Usage:
#   tools/determinism_diff.sh <path-to-asdsim_cli> \
#       [--split-at CYCLE] [asdsim_cli args...]
#   tools/determinism_diff.sh --bakeoff <path-to-asdbakeoff> \
#       [asdbakeoff args...]
#   tools/determinism_diff.sh --tuner <path-to-asdsim_cli> \
#       [asdsim_cli args...]
#   tools/determinism_diff.sh --os <path-to-asdsim_cli> \
#       [--split-at CYCLE] [asdsim_cli args...]
#
# With --split-at CYCLE the second run is checkpointed: it saves a
# snapshot at CYCLE, then restores and finishes from it — so the diff
# proves restore-then-run is byte-identical to an uninterrupted run.
#
# With --bakeoff the target is the asdbakeoff driver instead: the same
# grid runs once on 1 thread and once on 4, and the ranked report
# files (bakeoff.json, leaderboard.md) must compare byte-identical —
# the arena's parallelism-independence audit.
#
# With --tuner the run is phase-adaptively tuned (--tune is added for
# you): the same configuration runs once with 1 shadow worker thread
# and once with 4, and the stats JSON, the per-decision tuner CSV, and
# stdout must compare byte-identical — shadow candidates may be
# *evaluated* in any order on any number of threads, but the adopted
# configuration sequence must never depend on it.
#
# With --os the default configuration exercises the OS memory model
# under reclaim pressure with multi-tenant churn, split mid-run at a
# snapshot: demand paging, CLOCK reclaim, the hashed walker, and the
# tenant mix must all restore byte-identically. Extra args replace
# the default configuration as in plain mode.
#
# Without extra args a short default configuration is used. Exits 0
# when both runs are byte-identical, 1 otherwise.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 [--bakeoff|--tuner] <path-to-cli>" \
         "[--split-at CYCLE] [cli args...]" >&2
    exit 2
fi

if [ "$1" = "--bakeoff" ]; then
    shift
    if [ $# -lt 1 ]; then
        echo "determinism_diff: --bakeoff needs the asdbakeoff" \
             "path" >&2
        exit 2
    fi
    CLI=$1
    shift
    if [ ! -x "$CLI" ]; then
        echo "determinism_diff: not an executable: $CLI" >&2
        exit 2
    fi
    ARGS=("$@")
    if [ ${#ARGS[@]} -eq 0 ]; then
        ARGS=(--suites none --bench bwaves --bench tpcc
              --prefetchers asd,stride --accesses 2000
              --warm-start 1000 --quiet)
    fi
    TMP=$(mktemp -d)
    trap 'rm -rf "$TMP"' EXIT
    "$CLI" "${ARGS[@]}" --threads 1 --out "$TMP/run1"
    "$CLI" "${ARGS[@]}" --threads 4 --out "$TMP/run2"
    status=0
    for artifact in bakeoff.json leaderboard.md; do
        if ! cmp -s "$TMP/run1/$artifact" "$TMP/run2/$artifact"; then
            echo "determinism_diff: $artifact differs between -j1" \
                 "and -j4 bake-offs:" >&2
            diff "$TMP/run1/$artifact" "$TMP/run2/$artifact" >&2 \
                || true
            status=1
        fi
    done
    if [ $status -eq 0 ]; then
        echo "determinism_diff: OK (${ARGS[*]}) — bake-off report" \
             "byte-identical on 1 and 4 threads"
    fi
    exit $status
fi

if [ "$1" = "--tuner" ]; then
    shift
    if [ $# -lt 1 ]; then
        echo "determinism_diff: --tuner needs the asdsim_cli" \
             "path" >&2
        exit 2
    fi
    CLI=$1
    shift
    if [ ! -x "$CLI" ]; then
        echo "determinism_diff: not an executable: $CLI" >&2
        exit 2
    fi
    ARGS=("$@")
    if [ ${#ARGS[@]} -eq 0 ]; then
        # Long enough for several phase-detector decisions; the low
        # threshold makes it fire on GemsFDTD's natural phase churn.
        ARGS=(--bench GemsFDTD --mode MS --accesses 300000
              --tune-threshold 20000 --tune-horizon 40000)
    fi
    TMP=$(mktemp -d)
    trap 'rm -rf "$TMP"' EXIT
    "$CLI" "${ARGS[@]}" --tune --tune-threads 1 --csv \
        --json "$TMP/stats1.json" \
        --tuner-csv "$TMP/tuner1.csv" \
        > "$TMP/stdout1.txt"
    "$CLI" "${ARGS[@]}" --tune --tune-threads 4 --csv \
        --json "$TMP/stats2.json" \
        --tuner-csv "$TMP/tuner2.csv" \
        > "$TMP/stdout2.txt"
    if ! grep -q "," "$TMP/tuner1.csv" || \
       [ "$(wc -l < "$TMP/tuner1.csv")" -lt 2 ]; then
        echo "determinism_diff: tuner made no decisions — the audit" \
             "compared nothing; lengthen the run" >&2
        exit 1
    fi
    status=0
    for artifact in stats.json tuner.csv stdout.txt; do
        base=${artifact%.*}
        ext=${artifact##*.}
        if ! cmp -s "$TMP/$base"1".$ext" "$TMP/$base"2".$ext"; then
            echo "determinism_diff: $artifact differs between" \
                 "1-thread and 4-thread shadow evaluation:" >&2
            diff "$TMP/$base"1".$ext" "$TMP/$base"2".$ext" >&2 \
                || true
            status=1
        fi
    done
    if [ $status -eq 0 ]; then
        echo "determinism_diff: OK (${ARGS[*]}) — tuned run" \
             "byte-identical across shadow thread counts"
    fi
    exit $status
fi

OS_MODE=0
if [ "$1" = "--os" ]; then
    OS_MODE=1
    shift
    if [ $# -lt 1 ]; then
        echo "determinism_diff: --os needs the asdsim_cli path" >&2
        exit 2
    fi
fi

CLI=$1
shift
if [ ! -x "$CLI" ]; then
    echo "determinism_diff: not an executable: $CLI" >&2
    exit 2
fi

SPLIT=""
if [ "${1:-}" = "--split-at" ]; then
    if [ $# -lt 2 ]; then
        echo "determinism_diff: --split-at needs a cycle" >&2
        exit 2
    fi
    SPLIT=$2
    shift 2
fi

ARGS=("$@")
if [ ${#ARGS[@]} -eq 0 ]; then
    if [ $OS_MODE -eq 1 ]; then
        # The OS/tenant audit: 128 frames force steady CLOCK reclaim,
        # the hashed walker makes walk cost state-dependent, and the
        # short tenant lifetime churns address spaces — all split at a
        # mid-run snapshot by default.
        ARGS=(--bench tpcc --accesses 30000 --os --os-frames 128
              --os-walker hashed --tenants 4 --tenants-lifetime 8000)
        if [ -z "$SPLIT" ]; then
            SPLIT=4000000
        fi
    else
        # Long enough that several telemetry epochs complete (an
        # epoch is 2000 MC reads), so the CSV compares real per-epoch
        # content.
        ARGS=(--bench bwaves --mode MS --accesses 100000)
    fi
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Every file the run writes, numbered by run: stats.json,
# telemetry.{csv,json} and the trace.json Chrome trace.
outputs() {
    echo --json "$TMP/stats$1.json" \
        --telemetry-csv "$TMP/telemetry$1.csv" \
        --telemetry-json "$TMP/telemetry$1.json" \
        --telemetry-trace "$TMP/trace$1.json"
}

"$CLI" "${ARGS[@]}" --csv $(outputs 1) > "$TMP/stdout1.txt"

if [ -n "$SPLIT" ]; then
    # Save at the split point, then restore and finish: the second
    # run's outputs come entirely from the checkpointed machine.
    "$CLI" "${ARGS[@]}" --telemetry \
        --save-snapshot "$TMP/split.asdsnap@$SPLIT" 2> /dev/null
    "$CLI" --load-snapshot "$TMP/split.asdsnap" --csv $(outputs 2) \
        > "$TMP/stdout2.txt" 2> /dev/null
else
    "$CLI" "${ARGS[@]}" --csv $(outputs 2) > "$TMP/stdout2.txt"
fi

status=0
for artifact in stats.json telemetry.csv telemetry.json trace.json \
    stdout.txt; do
    base=${artifact%.*}
    ext=${artifact##*.}
    if ! cmp -s "$TMP/$base"1".$ext" "$TMP/$base"2".$ext"; then
        echo "determinism_diff: $artifact differs between runs:" >&2
        diff "$TMP/$base"1".$ext" "$TMP/$base"2".$ext" >&2 || true
        status=1
    fi
done

if [ $status -eq 0 ]; then
    if [ -n "$SPLIT" ]; then
        echo "determinism_diff: OK (${ARGS[*]}) — run split at cycle" \
             "$SPLIT via snapshot save/restore is byte-identical to" \
             "an uninterrupted run"
    else
        echo "determinism_diff: OK (${ARGS[*]}) — stats JSON," \
             "telemetry CSV/JSON/trace, and stdout byte-identical" \
             "across two runs"
    fi
fi
exit $status

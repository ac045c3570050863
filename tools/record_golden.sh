#!/usr/bin/env bash
# Byte pin of the paper record: run paper_record at ASD_BENCH_SCALE=0.4
# into a temporary directory and compare it, file by file, with a
# golden directory. That covers the paper's figures (.txt) and the
# extension outputs: the VM-sensitivity CSV and the OS-pressure and
# tuner JSON, whose tuned runs make decisions at this scale, so the
# tuner's decision path is pinned too. 0.4 is the smallest scale at
# which every figure renders: Fig. 3 needs eight epochs and has six at
# 0.3. The full-scale OS and tuner gates do not apply at 0.4.
#
# Usage:
#   tools/record_golden.sh <path-to-paper_record> <golden-dir>
#
# Exits 0 when every file matches, 1 otherwise. After a deliberate
# change to a figure, rewrite its expected file from the same run and
# review the diff.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <path-to-paper_record> <golden-dir>" >&2
    exit 2
fi
RECORD=$1
GOLDEN=$2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
ASD_BENCH_SCALE=0.4 "$RECORD" "$TMP"
if ! diff -ru "$GOLDEN" "$TMP"; then
    echo "record_golden: the paper record differs from $GOLDEN" >&2
    exit 1
fi

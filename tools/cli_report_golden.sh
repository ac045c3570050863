#!/usr/bin/env bash
# Byte pin of asdsim_cli's report: run a fixed set of configurations,
# each as the aligned table and as the --csv row, and compare stdout
# with the expected files in a golden directory.
#
# Usage:
#   tools/cli_report_golden.sh <path-to-asdsim_cli> <golden-dir>
#
# Exits 0 when every output matches, 1 otherwise. After a deliberate
# report change, rewrite each expected file from the same command line
# and review the diff.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <path-to-asdsim_cli> <golden-dir>" >&2
    exit 2
fi
CLI=$1
GOLDEN=$2

BASE=(--bench bwaves --mode PMS --accesses 100000)
declare -A CONFIGS=(
    [pms]=""
    [vm_random]="--vm-policy random"
    [os_tenants]="--os --tenants 4"
    [smt]="--smt"
)

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
status=0
for name in pms vm_random os_tenants smt; do
    # shellcheck disable=SC2206 # the config is a list of words
    extra=(${CONFIGS[$name]})
    "$CLI" "${BASE[@]}" "${extra[@]}" > "$TMP/$name.txt"
    "$CLI" "${BASE[@]}" "${extra[@]}" --csv > "$TMP/$name.csv"
    for form in txt csv; do
        if ! diff -u "$GOLDEN/$name.$form" "$TMP/$name.$form"; then
            echo "cli_report_golden: $name.$form differs" >&2
            status=1
        fi
    done
done
exit $status

#!/usr/bin/env bash
# Same bytes as another tree of this repository, usually the parent commit.
#
#   ci/same-bytes.sh OTHER_TREE
#
# Runs every argv of ci/same-bytes.argv once with this tree's package and
# once with OTHER_TREE's, both under the python on PATH with RuntimeWarning
# as an error, and compares each pair of outputs with cmp.  Exits 0 when
# every pair matches.  When report.SCHEMA_TAG differs between the trees, a
# schema bump that changes the bytes on purpose, OTHER_TREE is not run and
# nothing is compared, but every argv must still exit 0 in this tree.  An
# argv that exits 0 here but not in OTHER_TREE is printed as NEW and not
# compared: it names a flag or a generator that OTHER_TREE does not have
# yet.  Exits 1 when an output differs or an argv fails in this tree; a
# failure prints the tail of that run's stderr.
set -euo pipefail

here=$(cd "$(dirname "$0")/.." && pwd)
other=$(cd "$1" && pwd)

# The schema tag of a tree's package; fails unless the package is imported
# from that tree, so an installed copy cannot stand in for it.
schema_tag() {
    PYTHONPATH="$1/src" python -c '
import sys
import dirac_disquant.report as report
if not report.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {report.__file__}, not from {sys.argv[1]}")
print(report.SCHEMA_TAG)' "$1/src/" </dev/null
}

tag_here=$(schema_tag "$here")
tag_other=$(schema_tag "$other")
compare=1
if [ "$tag_here" != "$tag_other" ]; then
    echo "schema tag changed from $tag_other to $tag_here: outputs not compared"
    compare=0
fi

# Runs one argv with a tree's package; writes $out/NAME and $out/NAME.err.
run() {
    PYTHONPATH="$2/src" python -W error::RuntimeWarning -m dirac_disquant.cli "${argv[@]}" \
        --out "$out/$1" </dev/null 2>"$out/$1.err"
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
n=0
bad=0
new=0
while read -r line; do
    case $line in '' | '#'*) continue ;; esac
    n=$((n + 1))
    read -ra argv <<<"$line"
    status_here=0
    status_other=0
    run here "$here" || status_here=$?
    if [ "$compare" -eq 1 ]; then
        run other "$other" || status_other=$?
    fi
    if [ "$status_here" -ne 0 ]; then
        echo "FAILED (exit $status_here in $here): $line"
        tail -n 20 "$out/here.err" | sed 's/^/    /'
        bad=$((bad + 1))
    elif [ "$compare" -eq 0 ]; then
        :
    elif [ "$status_other" -ne 0 ]; then
        echo "NEW (exit $status_other in $other): $line"
        tail -n 1 "$out/other.err" | sed 's/^/    /'
        new=$((new + 1))
    elif ! cmp -s "$out/here" "$out/other"; then
        echo "DIFFERS: $line"
        bad=$((bad + 1))
    fi
    rm -f "$out"/*
done <"$here/ci/same-bytes.argv"

if [ "$compare" -eq 1 ]; then
    echo "$((n - bad - new)) of $n outputs have the same bytes as $other;" \
        "$new new, $bad bad"
else
    echo "$((n - bad)) of $n argvs exit 0 in $here; $bad bad"
fi
[ "$bad" -eq 0 ]

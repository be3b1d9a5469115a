#!/usr/bin/env bash
# Size of the Rust sources, counted the way EXPERIMENTS.md's "Size" tables
# count: each file is cut at its first `#[cfg(test)]` line, and what is left
# goes through `grep -vE '^\s*(//|$)' | wc -l` (no tests, comments or blank
# lines).
#
# Usage: scripts/loc.sh [DIR|FILE ...]     (default: crates/*/src)
#
# Prints one line per file, then one per crate (the `crates/<name>` part of
# the path; other paths group by their first directory), then the total.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*/src

find "$@" -name '*.rs' -type f | sort | while read -r f; do
    n=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*(//|$)' | wc -l)
    printf '%s %s\n' "$n" "$f"
done | awk '
    {
        n = split($2, part, "/")
        group = (part[1] == "crates" && n > 2) ? part[1] "/" part[2] : part[1]
        printf "%7d  %s\n", $1, $2
        by[group] += $1
        total += $1
    }
    END {
        print ""
        for (g in by) printf "%7d  %s\n", by[g], g | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'

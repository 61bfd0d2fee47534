#!/usr/bin/env bash
# Line tally of `crates/ tests/ vendor/` — ROADMAP's "collapse the
# design" target, as one command.
#
#   scripts/loc.sh          the working tree
#   scripts/loc.sh <ref>    the working tree, and its delta against <ref>
#
# Per crate (each directory under crates/ and vendor/, plus the root
# tests/) and in total: lines and code lines (neither blank nor a `//`
# comment) of every .rs file, split into *src* — what is above a file's
# first `#[cfg(test)]` — and *test* — what is below it, and every file
# under a `tests/` directory. With a ref, `git archive <ref>` is unpacked
# into target/loc/ (nothing is written outside target/) and each column
# is followed by working tree minus ref.
set -euo pipefail
cd "$(dirname "$0")/.."

roots=(crates tests vendor)

# tally <dir>: one "group src_lines src_code test_lines test_code" row
# per group, sorted, then the total.
tally() {
    (cd "$1" && find "${roots[@]}" -name '*.rs' -type f | sort) | while read -r f; do
        case "$f" in
            tests/*) group=tests ;;
            *) group="$(echo "$f" | cut -d/ -f1-2)" ;;
        esac
        awk -v group="$group" -v file="$f" '
            BEGIN { test = file ~ /(^|\/)tests\// }
            /#\[cfg\(test\)\]/ { test = 1 }
            {
                lines[test]++
                if ($0 !~ /^[[:space:]]*$/ && $0 !~ /^[[:space:]]*\/\//) code[test]++
            }
            END { print group, lines[0] + 0, code[0] + 0, lines[1] + 0, code[1] + 0 }
        ' "$1/$f"
    done | awk '
        { for (i = 2; i <= 5; i++) { sum[$1, i] += $i; total[i] += $i } groups[$1] = 1 }
        END {
            for (g in groups) print g, sum[g, 2], sum[g, 3], sum[g, 4], sum[g, 5] | "sort"
            close("sort")
            print "total", total[2] + 0, total[3] + 0, total[4] + 0, total[5] + 0
        }
    '
}

if [ $# -eq 0 ]; then
    printf '%-22s %9s %9s %10s %10s\n' crate src-lines src-code test-lines test-code
    tally . | while read -r g a b c d; do
        printf '%-22s %9d %9d %10d %10d\n' "$g" "$a" "$b" "$c" "$d"
    done
    exit 0
fi

ref="$1"
base="target/loc/base"
rm -rf "$base"
mkdir -p "$base"
git archive "$ref" "${roots[@]}" | tar -x -C "$base"

printf '%-22s %16s %16s %16s %16s\n' crate src-lines src-code test-lines test-code
# Join the two tallies on the group name; a group on one side only
# counts as zero on the other.
join -a1 -a2 -e0 -o 0,1.2,1.3,1.4,1.5,2.2,2.3,2.4,2.5 \
    <(tally . | sort -k1,1) <(tally "$base" | sort -k1,1) |
    awk '{ print ($1 == "total"), $0 }' | sort -k1,1n -k2,2 | cut -d' ' -f2- |
    while read -r g a b c d pa pb pc pd; do
        printf '%-22s %9d %+6d %9d %+6d %9d %+6d %9d %+6d\n' "$g" \
            "$a" $((a - pa)) "$b" $((b - pb)) "$c" $((c - pc)) "$d" $((d - pd))
    done

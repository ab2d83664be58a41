#!/usr/bin/env bash
# Mutation campaign over the decision-critical lines listed in mutants.tsv.
#
# Each row of .github/mutants.tsv is one mutant: a file, an exact text in it,
# its replacement and the reason (tab-separated; `\n` stands for a newline,
# and `#` starts a comment line). The script copies the working tree into a
# scratch directory once; then, for each mutant, it replaces the text in the
# copy, runs `cargo test -q --no-fail-fast` there and restores the file. It
# prints a Markdown table with one verdict per mutant:
#   killed by T     the tests T failed (the first three, then a count);
#   survived        every test passed;
#   unviable        the mutated copy does not compile;
#   stale           the text does not occur exactly once: update the row.
#
# Usage (from anywhere inside the repository):
#   .github/mutants.sh              every mutant
#   .github/mutants.sh 3 17         rows 3 and 17 (numbered from 1, comments excluded)
#   .github/mutants.sh --check      only check that every text occurs exactly once
# MUTANTS_DIR names the scratch directory (default: a new `mktemp -d`); the
# build in its `target/` is reused by every mutant and by later runs, and each
# mutant's test log is kept there as `mutant-N.log`. Cargo runs offline: every
# dependency is vendored.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
list="$root/.github/mutants.tsv"

rows=()
while IFS= read -r line || [[ -n $line ]]; do
    [[ -z $line || $line == \#* ]] && continue
    rows+=("$line")
done <"$list"

check_only=false
picked=()
for arg in "$@"; do
    case $arg in
        --check) check_only=true ;;
        *) picked+=("$arg") ;;
    esac
done
if [[ ${#picked[@]} -eq 0 ]]; then
    mapfile -t picked < <(seq 1 "${#rows[@]}")
fi

if $check_only; then
    tree=$root
else
    work=${MUTANTS_DIR:-$(mktemp -d)}
    tree=$work/tree
    rm -rf "$tree"
    mkdir -p "$tree"
    (cd "$root" && git ls-files -z --cached --others --exclude-standard |
        tar --null -T - -cf -) | tar -xf - -C "$tree"
    export CARGO_TARGET_DIR=$work/target
    echo "scratch copy: $tree" >&2
    echo "| # | file | mutant | verdict | s |"
    echo "|---|---|---|---|---|"
fi

status=0
for n in "${picked[@]}"; do
    # Split on tabs without merging empty fields, then decode `\n`.
    IFS=$'\x1f' read -r file text replacement reason <<<"${rows[n - 1]//$'\t'/$'\x1f'}"
    text=${text//\\n/$'\n'}
    replacement=${replacement//\\n/$'\n'}
    path=$tree/$file
    # The file's exact content: the `x` keeps its trailing newlines.
    content=$(cat "$path" && printf x)
    content=${content%x}
    without=${content//"$text"/}
    count=$(((${#content} - ${#without}) / ${#text}))
    if [[ $count -ne 1 ]]; then
        echo "| $n | \`$file\` | $reason | stale: the text occurs $count times | – |"
        status=1
        continue
    fi
    $check_only && continue

    echo "mutant $n: $reason" >&2
    log=$work/mutant-$n.log
    printf '%s' "${content/"$text"/"$replacement"}" >"$path"
    start=$SECONDS
    if (cd "$tree" && cargo test -q --no-fail-fast) >"$log" 2>&1; then
        verdict="**survived**"
    elif ! grep -q '^test result' "$log"; then
        verdict="unviable (does not compile; see \`mutant-$n.log\`)"
    else
        mapfile -t failed < <(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u)
        if [[ ${#failed[@]} -eq 0 ]]; then
            verdict="killed (a test binary failed; see \`mutant-$n.log\`)"
        else
            shown=$(printf '`%s`, ' "${failed[@]:0:3}")
            verdict="killed by ${shown%, }"
            if [[ ${#failed[@]} -gt 3 ]]; then
                verdict+=" and $((${#failed[@]} - 3)) more"
            fi
        fi
    fi
    printf '%s' "$content" >"$path"
    echo "| $n | \`$file\` | $reason | $verdict | $((SECONDS - start)) |"
done
exit $status

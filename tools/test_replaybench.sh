#!/usr/bin/env bash
# replaybench renders every registry target: at a tiny budget the text
# run must print each target's figure header and digest line, and the
# JSON run must parse and name the same targets with a digest each.
#
# Usage: tools/test_replaybench.sh <path-to-replaybench>
set -euo pipefail

bench="$1"
targets="$("$bench" --list | awk '{ print $1 }')"
[ "$(echo "$targets" | wc -l)" -eq 6 ] ||
    { echo "FAIL: expected 6 targets, got: $targets"; exit 1; }

text="$("$bench" --insts 2000 --jobs 2)"
for t in $targets; do
    grep -q "^== $t: " <<<"$text" ||
        { echo "FAIL: no figure header for $t"; exit 1; }
    grep -Eq "^$t: digest [0-9a-f]{16}$" <<<"$text" ||
        { echo "FAIL: no digest line for $t"; exit 1; }
done

"$bench" --insts 2000 --json | python3 -c '
import json, re, sys
doc = json.load(sys.stdin)
names = [t["name"] for t in doc["targets"]]
expected = sys.argv[1].split()
assert names == expected, (names, expected)
for t in doc["targets"]:
    assert re.fullmatch("[0-9a-f]{16}", t["digest"]), t["name"]
    assert t["cells"], t["name"]
' "$targets"
echo "replaybench: text and JSON output well formed for: $(echo $targets)"

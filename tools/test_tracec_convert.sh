#!/usr/bin/env bash
# tracec convert must refuse a damaged source rather than write a
# silently shortened copy: record a 600-record trace in 200-record
# chunks, check that it converts, flip one byte in the middle of chunk
# 2's payload, then expect a non-zero exit and no output file.
#
# Usage: tools/test_tracec_convert.sh <path-to-tracec>
set -euo pipefail

tracec="$1"
dir="$(mktemp -d "${TMPDIR:-/tmp}/tracec-convert-XXXXXX")"
trap 'rm -rf "$dir"' EXIT

"$tracec" record gzip 0 600 "$dir/in.rpl3" --codec raw --chunk 200 >/dev/null
"$tracec" convert "$dir/in.rpl3" "$dir/clean.rpl3" >/dev/null

# Chunk 2's payload starts after its 28-byte chunk header.
off=$("$tracec" index "$dir/in.rpl3" |
      awk '$1 == "2" { print $2 + 28 + int($6 / 2) }')
[ -n "$off" ] || { echo "FAIL: no chunk 2 in the index"; exit 1; }
byte=$(od -An -tu1 -j "$off" -N1 "$dir/in.rpl3" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 0xff)))" |
    dd of="$dir/in.rpl3" bs=1 seek="$off" conv=notrunc status=none

if "$tracec" convert "$dir/in.rpl3" "$dir/out.rpl3"; then
    echo "FAIL: convert exited 0 on a damaged source"
    exit 1
fi
if [ -e "$dir/out.rpl3" ]; then
    echo "FAIL: convert left a partial output file"
    exit 1
fi
echo "ok: damaged source refused, no output written"

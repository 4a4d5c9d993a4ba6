#!/bin/sh
# Print the tools/fingerprint.py groups whose digests differ between the
# src/ of the git revision REF and the working tree, with both digests;
# exit 1 if any group differs.  Both runs use the working tree's
# tools/fingerprint.py and perfbench/ (the sweep configs).
#
#     tools/fingerprint_against.sh REF
set -eu
ref=${1:?usage: tools/fingerprint_against.sh REF}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tools" "$tmp/perfbench"
git -C "$root" archive "$ref" src | tar -x -C "$tmp"
cp "$root/tools/fingerprint.py" "$tmp/tools/"
cp "$root"/perfbench/*.py "$tmp/perfbench/"
python3 "$tmp/tools/fingerprint.py" > "$tmp/ref.txt"
python3 "$root/tools/fingerprint.py" > "$tmp/new.txt"
paste -d ' ' "$tmp/ref.txt" "$tmp/new.txt" | awk -v ref="$ref" '
    $2 != $4 { printf "%-20s %s (%s)\n%-20s %s (working tree)\n", $1, $2, ref, "", $4; n++ }
    END { if (n) exit 1; print "no group differs from " ref }'

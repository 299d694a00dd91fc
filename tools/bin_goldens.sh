#!/bin/sh
# Diff the release stdout of every reporting bin against its golden file
# in crates/bench/tests/golden/: the figure and table bins, the
# trace_report and lint JSON, the fuzz oracle's summary at CI's seed and
# the daemon's answers to CI's serve batch (the seven suite names, then
# the fuzz corpus verbatim). Exits nonzero on any difference.
#
# After an intentional change to what a bin prints, rewrite the goldens
# and review the diff:
#
#   SSP_BLESS=1 sh tools/bin_goldens.sh
#
# Run from the repository root.
set -eu

golden=crates/bench/tests/golden
corpus=tests/corpus/adaptation_oracle.corpus
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cargo build --release -q -p ssp-bench -p ssp-serve

run() {
    pkg=$1
    bin=$2
    shift 2
    cargo run --release -q -p "$pkg" --bin "$bin" -- "$@" 2>/dev/null
}

for bin in table1 fig2 table2 fig8 fig9 fig10 hand_vs_auto stride_baseline; do
    run ssp-bench "$bin" > "$out/$bin.txt"
done
run ssp-bench trace_report > "$out/trace_report.json"
run ssp-bench lint > "$out/lint.json"
run ssp-bench fuzz_oracle --seed 2002 --cases 200 --corpus "$corpus" > "$out/fuzz_oracle.json"
{ printf 'em3d\nhealth\nmst\ntreeadd.df\ntreeadd.bf\nmcf\nvpr\n'; cat "$corpus"; } |
    run ssp-serve ssp_serve > "$out/ssp_serve.txt"

status=0
for f in "$out"/*; do
    name=$(basename "$f")
    if [ "${SSP_BLESS:-}" = 1 ]; then
        cp "$f" "$golden/$name"
    elif ! diff -u "$golden/$name" "$f"; then
        echo "bin_goldens: $name differs from $golden/$name" >&2
        status=1
    fi
done
exit $status

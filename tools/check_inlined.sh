#!/bin/sh
# Inlining guard: fail if the release `ssp_serve` holds an out-of-line
# copy of a hot simulator helper.
#
# The engine's speed rides on the compiler inlining these helpers into
# the cycle loop; a few more lines in one of them can make it call them
# instead, which costs every simulation without moving a cycle. Each
# name below must not appear as a function symbol in the binary.
#
# Usage (from the repository root, after `cargo build --release`):
#
#   sh tools/check_inlined.sh [path/to/ssp_serve]
#
# Exit status: 0 when every helper is inlined, 1 when one is not, 2
# when the binary or `nm` is missing.
set -eu

bin=${1:-target/release/ssp_serve}
if [ ! -f "$bin" ]; then
    echo "check_inlined: $bin not found (build it with: cargo build --release -p ssp-serve)" >&2
    exit 2
fi
if ! command -v nm > /dev/null 2>&1; then
    echo "check_inlined: nm (binutils) not found" >&2
    exit 2
fi

# Demangled names of the helpers that must be inlined, without generic
# arguments: the cache level's way lookup, the OOO dispatch into the ROB,
# the reservation-station buffer operations on the per-dispatch path, and
# the commit drain.
helpers='
ssp_sim::cache::Level::lookup
ssp_sim::cache::Level::ways
ssp_sim::engine::Engine::push_rob
ssp_sim::engine::RsWaiting::full
ssp_sim::engine::RsWaiting::next_after
ssp_sim::engine::RsWaiting::push
ssp_sim::engine::drain_thread
'

# Function symbols (text section), demangled, without their addresses
# and with every generic argument list dropped, innermost first: the
# engine is generic over its pipeline model, so its out-of-line
# `push_rob` demangles as `ssp_sim::engine::Engine<_>::push_rob`, and a
# helper matches whatever it is instantiated with.
symbols=$(nm -C "$bin" | awk '$2 == "t" || $2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' \
    | sed -e ':a' -e 's/<[^<>]*>//g' -e 'ta')

status=0
for h in $helpers; do
    if printf '%s\n' "$symbols" | grep -qxF "$h"; then
        echo "check_inlined: $h is out of line in $bin" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "check_inlined: all $(printf '%s\n' $helpers | grep -c .) hot helpers are inlined in $bin"
fi
exit "$status"

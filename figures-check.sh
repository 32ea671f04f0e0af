#!/bin/sh
# figures-check.sh check|golden — hash every eumsim figure at small scale,
# seed 1, and compare with (check) or rewrite (golden) FIGURES.sha256.
# Each figure runs at -workers 1 and -workers 4 and must hash the same at
# both: the list holds one line per figure, not per worker count. The
# `scale` figure times its builds, so its wall-clock rows stay out of its
# hash, and its byte counts are hashed apart, as `scale-memory`: a change
# to what the map stores moves that line alone, and every other line keeps
# meaning that no answer moved. Everything temporary lives in a directory
# removed on exit.
set -eu
mode=${1:-check}
root=$(cd "$(dirname "$0")" && pwd)
golden="$root/FIGURES.sha256"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && ${GO:-go} build -o "$tmp/eumsim" ./cmd/eumsim)

table() { # figure, workers
	"$tmp/eumsim" -fig "$1" -scale small -seed 1 -workers "$2" 2>/dev/null |
		grep -v -e '^full build ' -e '^warm republish ' -e '^incremental republish '
}

memory='^snapshot bytes |^serving index bytes |^resident bytes/block '

hash_fig() { # figure, workers
	case $1 in
	scale) table scale "$2" | grep -Ev "$memory" ;;
	scale-memory) table scale "$2" | grep -E "$memory" ;;
	*) table "$1" "$2" ;;
	esac | sha256sum | cut -d' ' -f1
}

status=0
for fig in $("$tmp/eumsim" -list | awk '{print $1}') scale-memory; do
	one=$(hash_fig "$fig" 1)
	four=$(hash_fig "$fig" 4)
	if [ "$one" != "$four" ]; then
		echo "figure $fig: -workers 1 and -workers 4 print different tables" >&2
		status=1
	fi
	echo "$one  $fig"
done >"$tmp/now"

if [ "$mode" = golden ]; then
	[ "$status" = 0 ] && cp "$tmp/now" "$golden" && echo "wrote $(wc -l <"$golden") figure hashes to FIGURES.sha256"
	exit "$status"
fi
if ! diff -u "$golden" "$tmp/now" >&2; then
	echo "figure output drifted from FIGURES.sha256 (see the diff above); if the change is meant, run 'make figures-golden' and list the rows that moved" >&2
	status=1
fi
exit "$status"

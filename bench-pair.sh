#!/usr/bin/env bash
# bench-pair.sh BASE [WORKLOAD] [PAIRS] — paired benchmark runs of a parent
# revision against this checkout.
#
# BASE is exported into .bench_build/pair/<commit>/ (git archive: a plain
# tree, nothing registered in .git), and `bash bench/run.sh` is alternated
# between that tree and this one, swapping who goes first each pair, so that
# a drift of the machine lands on both sides alike. Then, per metric: both
# medians with their quartiles, how many pairs the change won (ties count
# for neither side), and whether the medians are further apart than the
# parent's own interquartile range — the rule a performance claim has to
# meet (ROADMAP "Rules every item inherits"; at least nine wins in ten).
#
# SEED (default 1), SECONDS_OF_LOAD (default 20) and TRACE (default 0; 1
# compares the per-layer metrics of traced runs instead) come from the
# environment. Every run's output is kept under
# .bench_build/pair/<workload>-seed<seed>/. Nothing under bench/ is edited.
set -euo pipefail
base_rev=${1:?usage: bench-pair.sh BASE [WORKLOAD] [PAIRS]}
workload=${2:-hot_zipf}
pairs=${3:-10}
seed=${SEED:-1}
seconds=${SECONDS_OF_LOAD:-20}
trace=${TRACE:-0}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
commit=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
base="$root/.bench_build/pair/$commit"
if [ ! -f "$base/bench/run.sh" ]; then
	rm -rf "$base"
	mkdir -p "$base"
	git -C "$root" archive "$commit" | tar -x -C "$base"
fi
runs="$root/.bench_build/pair/$workload-seed$seed"
rm -rf "$runs"
mkdir -p "$runs"

run() { # side, tree, pair number
	if ! bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
		>"$runs/$1.$3.txt" 2>"$runs/$1.$3.err"; then
		echo "bench-pair: the $1 run of pair $3 failed; see $runs/$1.$3.err" >&2
		tail -n 5 "$runs/$1.$3.err" >&2
		exit 1
	fi
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) = 1 ]; then
		run base "$base" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run base "$base" "$i"
	fi
	echo "pair $i/$pairs done" >&2
done

# The last line of a run is {"correct":…,"attempted":…,"failed":…,"metrics":
# {"<name>":{"value":…,"unit":"…"},…}}; BENCHMARK.json says which way each
# metric is better.
for side in base change; do
	for i in $(seq 1 "$pairs"); do
		tail -n 1 "$runs/$side.$i.txt" | awk -v side="$side" -v pair="$i" '{
			if (match($0, /"failed":[0-9]+/)) print side, pair, "ops_failed", substr($0, RSTART + 9, RLENGTH - 9)
			if (match($0, /"correct":(true|false)/)) print side, pair, "oracle_correct", ($0 ~ /"correct":true/) ? 1 : 0
			rest = $0
			while (match(rest, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
				entry = substr(rest, RSTART, RLENGTH)
				rest = substr(rest, RSTART + RLENGTH)
				name = entry; sub(/^"/, "", name); sub(/".*/, "", name)
				value = entry; sub(/.*"value":/, "", value)
				print side, pair, name, value
			}
		}'
	done
done >"$runs/values.txt"

echo "$workload, seed $seed, $seconds s, trace $trace: $pairs pairs of $(git -C "$root" rev-parse --short "$commit") (base) against this tree (change)"
awk -v pairs="$pairs" '
function quantile(v, n, p,    h, lo) { # v[1..n] ascending
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function summary(side, name, out,    n, i, j, t, v) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, i, name) in val) v[++n] = val[side, i, name]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	out["med"] = quantile(v, n, 0.5); out["q1"] = quantile(v, n, 0.25); out["q3"] = quantile(v, n, 0.75)
}
BEGIN { better["oracle_correct"] = "higher" }
FNR == NR { # BENCHMARK.json: a "name" line, then the "better" line of the same entry
	if ($0 ~ /"name":/) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
	if ($0 ~ /"better":/) better[name] = ($0 ~ /higher/) ? "higher" : "lower"
	next
}
{ val[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 } }
END {
	printf "%-34s %-32s %-32s %-7s %s\n", "metric", "base median [q1..q3]", "change median [q1..q3]", "wins", "medians vs base IQR"
	for (m = 1; m <= metrics; m++) {
		name = order[m]
		summary("base", name, b); summary("change", name, c)
		wins = 0; decided = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("base", i, name) in val) || !(("change", i, name) in val)) continue
			d = val["change", i, name] - val["base", i, name]
			if (d == 0) continue
			decided++
			if ((better[name] == "higher") == (d > 0)) wins++
		}
		diff = c["med"] - b["med"]; iqr = b["q3"] - b["q1"]
		if (diff == 0) verdict = "equal"
		else {
			verdict = sprintf("%+.1f %%, ", b["med"] ? 100 * diff / b["med"] : 0)
			verdict = verdict ((diff < 0 ? -diff : diff) > iqr ? "beyond the IQR" : "inside the IQR: unresolved")
		}
		printf "%-34s %-32s %-32s %-7s %s\n", name,
			sprintf("%.6g [%.6g..%.6g]", b["med"], b["q1"], b["q3"]),
			sprintf("%.6g [%.6g..%.6g]", c["med"], c["q1"], c["q3"]),
			sprintf("%d/%d", wins, decided), verdict
	}
}' "$root/BENCHMARK.json" "$runs/values.txt"

#!/usr/bin/env bash
# Coverage sweep: production code is what production runs.
#
# Builds every cmd/ and examples/ program with -cover -coverpkg=./..., drives
# them with the traffic below (every CLI, a two-replica cxlserve ring under
# scripts/loadtest with /v1/trace, a snapshot restart, the examples), reads
# `go tool covdata func` and fails on
#   - any function at 0.0% that scripts/coverage-keep.txt does not list, and
#   - any keep-list entry whose function no longer exists.
# A keep-list line is "file:Func  reason", with file relative to the module
# root and Func as covdata prints it (*Type.Method for pointer receivers).
#
# Usage: scripts/coverage-sweep.sh   (no flags; about 20 s after the builds)
set -euo pipefail

cd "$(dirname "$0")/.."
keep=scripts/coverage-keep.txt
work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

bin=$work/bin
mkdir -p "$bin" "$work/cov"
for dir in cmd/* examples/*; do
	go build -cover -coverpkg=./... -o "$bin/$(basename "$dir")" "./$dir"
done
go build -o "$bin/loadtest" ./scripts/loadtest
export GOCOVERDIR=$work/cov

quiet() { "$@" >/dev/null; }

# The command-line programs.
cb=$bin/cxlbench
quiet "$cb" -list
quiet "$cb" -platform list
quiet "$cb" -scenario list
for format in text json csv; do
	quiet "$cb" -run all -quick -format "$format"
done
quiet "$cb" -run all -parallel 2
quiet "$cb" -scenario all -quick
quiet "$cb" -run fig5 -quick -fidelity auto
quiet "$cb" -run fig5 -quick -fidelity fast
quiet "$cb" -platform x16-quad -scenario kvstore/policy=cxl -quick
# A bad command line exits 2 with the usage text before anything runs.
status=0
"$cb" -run fig5 -quick -format yaml >/dev/null 2>&1 || status=$?
if [ "$status" != 2 ]; then
	echo "coverage-sweep: cxlbench -format yaml exited $status, want 2" >&2
	exit 1
fi
quiet "$bin/mlc"
quiet "$bin/mlc" -buffer
quiet "$bin/memo"
quiet "$bin/caption"
for dir in examples/*; do
	quiet "$bin/$(basename "$dir")"
done

# A two-replica cxlserve ring.
a=127.0.0.1:18375
b=127.0.0.1:18376
peers=http://$a,http://$b
serve() {
	"$bin/cxlserve" -quick -peers "$peers" "$@" >/dev/null 2>&1 &
	pids+=($!)
}
up() {
	for _ in $(seq 1 100); do
		curl -sf "http://$1/healthz" >/dev/null 2>&1 && return 0
		sleep 0.1
	done
	echo "cxlserve on $1 did not come up" >&2
	exit 1
}
get() { curl -sf "http://$a$1" >/dev/null; }
answers() {
	code=$(curl -s -o /dev/null -w '%{http_code}' "http://$a$2")
	if [ "$code" != "$1" ]; then
		echo "coverage-sweep: $2 answered $code, want $1" >&2
		exit 1
	fi
}
stop() {
	kill -TERM "$1"
	wait "$1"
}

serve -addr "$a" -snapshot-save "$work/snap.json"
serve -addr "$b"
up "$a"
up "$b"
for id in $("$cb" -list | awk '{print $1}'); do
	for format in text json csv; do
		get "/v1/run?id=$id&format=$format"
	done
done
for seed in 1 2 3; do
	get "/v1/run?id=fig6b&seed=$seed"
	get "/v1/run?id=tpp-timeline&seed=$seed"
done
get "/v1/scenario?spec=kvstore/policy=cxl&format=csv"
get "/v1/scenario?spec=tpp-timeline"
get "/v1/trace?id=tpp-timeline&limit=20"
get "/v1/trace?spec=tpp-timeline/seed=2"
get /v1/experiments
get /v1/snapshot
get /metrics
get /healthz
answers 404 "/v1/run?id=fig99"
answers 400 "/v1/scenario?spec=nosuch"
answers 400 /v1/trace
quiet "$cb" -scenario kvstore/policy=cxl -quick -remote "$peers"
quiet "$cb" -scenario all -quick -remote "$peers"
quiet "$cb" -scenario all -quick -remote "http://$a"
quiet "$bin/loadtest" -url "http://$a" -n 200 -c 16 -fail-5xx

# A warm restart of replica A from its drain-time snapshot, on a small budget.
stop "${pids[0]}"
serve -addr "$a" -snapshot-load "$work/snap.json" -cache-entries 4
up "$a"
get "/v1/run?id=table3&format=json"
get "/v1/run?id=fig6b&seed=4"
get /metrics
stop "${pids[2]}"
stop "${pids[1]}"
pids=()

# Compare the functions at 0% with the keep list.
go tool covdata func -i="$GOCOVERDIR" |
	awk '$1 != "total" { sub(/^cxlmem\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 ":" $2, $3 }' \
		>"$work/funcs"
awk '$2 == "0.0%" { print $1 }' "$work/funcs" | sort -u >"$work/zero"
awk '{ print $1 }' "$work/funcs" | sort -u >"$work/all"
awk '!/^#/ && NF { print $1 }' "$keep" | sort >"$work/keep"

status=0
if awk 'NF == 1 && !/^#/ { print }' "$keep" | grep .; then
	echo "coverage-sweep: the keep-list entries above carry no reason" >&2
	status=1
fi
if comm -23 "$work/zero" "$work/keep" | grep .; then
	echo "coverage-sweep: no traffic reaches the functions above; delete them, move them into tests, or list them in $keep with a reason" >&2
	status=1
fi
if comm -23 "$work/keep" "$work/all" | grep .; then
	echo "coverage-sweep: the $keep entries above name no function" >&2
	status=1
fi
if [ "$status" = 0 ]; then
	echo "coverage-sweep: every function at 0% is on the keep list ($(wc -l <"$work/keep") entries)"
fi
exit "$status"

#!/usr/bin/env bash
# flake-census.sh runs packages' tests again and again in a shuffled
# order, once plain and once under the race detector, and appends one
# JSON line per mode to a census file: how often each test passed and
# failed, the shuffle seed of every failing run, and the wall time.
#
#   tools/flake-census.sh [-count N] [-label L] [-out FILE] [PKG...]
#
# Each of the N runs is a go test -shuffle=on -count=1 of its own, so
# every run draws a fresh order and a failure is replayed with
#   go test -shuffle=SEED -run TEST PKG
# (with -race if the record says race). PKG defaults to ./... and N to
# 20. A record reads
#   {"commit":C,"label":L,"race":B,"runs":N,"pkgs":[...],"wall_s":S,
#    "failed":F,"tests":{"pkg.Test":[pass,fail],...},
#    "failures":[{"test":T,"seed":SEED},...]}
# where C is git describe (C+change for an uncommitted tree) and a
# package that fails without naming a test (a build error, a timeout)
# counts under its own name.
set -euo pipefail

count=20
label=""
out=BENCH_flakes.json
while [ $# -gt 0 ]; do
	case "$1" in
	-count) count=$2; shift 2 ;;
	-label) label=$2; shift 2 ;;
	-out) out=$2; shift 2 ;;
	-*) echo "flake-census: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
[ $# -gt 0 ] || set -- ./...
commit=$(git describe --always --dirty=+change)
pkgs=$(printf '"%s",' "$@")
pkgs="[${pkgs%,}]"

for race in false true; do
	flags=(-shuffle=on -count=1 -json)
	[ "$race" = true ] && flags+=(-race)
	log=$(mktemp)
	start=$(date +%s)
	for ((i = 0; i < count; i++)); do
		go test "${flags[@]}" "$@" >>"$log" 2>/dev/null || true
	done
	wall=$(($(date +%s) - start))
	# One "test pass fail" line per test, then the failures with their
	# seeds, folded into the record.
	awk '
		function field(name,   m) {
			if (match($0, "\"" name "\":\"[^\"]*\"") == 0) return ""
			m = substr($0, RSTART, RLENGTH)
			sub("^\"" name "\":\"", "", m)
			return substr(m, 1, length(m) - 1)
		}
		/"Action":"output"/ && /-test\.shuffle [0-9]+/ {
			match($0, /-test\.shuffle [0-9]+/)
			s = substr($0, RSTART + 14, RLENGTH - 14)
			seed[field("Package")] = s
			next
		}
		/"Action":"(pass|fail)"/ {
			pkg = field("Package"); test = field("Test"); act = field("Action")
			if (test == "") {
				if (act == "pass" || pkg in named) { delete named[pkg]; next }
				test = "(package)"
			} else if (act == "fail") {
				named[pkg] = 1
			}
			key = pkg "." test
			if (act == "pass") pass[key]++; else { fail[key]++; print "F\t" key "\t" seed[pkg] }
			seen[key] = 1
		}
		/"Action":"start"/ { delete named[field("Package")] }
		END { for (k in seen) print "T\t" k "\t" pass[k] + 0 "\t" fail[k] + 0 }
	' "$log" | sort | awk -F'\t' -v commit="$commit" -v label="$label" -v race="$race" \
		-v runs="$count" -v pkgs="$pkgs" -v wall="$wall" '
		$1 == "F" { failures = failures sep_f "{\"test\":\"" $2 "\",\"seed\":" ($3 == "" ? "null" : $3) "}"; sep_f = ","; nfail++ }
		$1 == "T" { tests = tests sep_t "\"" $2 "\":[" $3 "," $4 "]"; sep_t = "," }
		END {
			printf "{\"commit\":\"%s\",\"label\":\"%s\",\"race\":%s,\"runs\":%d,\"pkgs\":%s,\"wall_s\":%d,\"failed\":%d,\"tests\":{%s},\"failures\":[%s]}\n",
				commit, label, race, runs, pkgs, wall, nfail, tests, failures
		}
	' >>"$out"
	rm -f "$log"
	echo "flake-census: race=$race, $count runs in ${wall}s, $(tail -n 1 "$out" | sed 's/.*"failed":\([0-9]*\).*/\1/') failures, appended to $out"
done

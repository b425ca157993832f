#!/usr/bin/env bash
# Mutation check. Each mutants/*.patch breaks one thing the tests promise
# to notice; its header names the package to test ("Package: ./internal/…")
# and the -run regex of the tests that must catch it ("Run: …"). For every
# patch this copies the working tree (tracked and untracked, not ignored
# files) to one scratch directory, applies the patch with git apply, and
# runs `go test -count=1 -run <Run> <Package>` there. A mutant is caught
# only when the output has a "--- FAIL" line: a patch that no longer
# applies, a mutant that does not build, and a mutant whose tests pass
# all fail the run.
#
# Usage: bash mutants/run.sh [patch ...]   (default: every mutants/*.patch)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ $# -eq 0 ]; then
	set -- "$root"/mutants/*.patch
fi

failed=0
for patch in "$@"; do
	patch=$(realpath "$patch")
	name=$(basename "$patch" .patch)
	pkg=$(sed -n 's/^Package: //p' "$patch" | head -n 1)
	run=$(sed -n 's/^Run: //p' "$patch" | head -n 1)
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "FAIL $name: header lacks Package: or Run:"
		failed=1
		continue
	fi
	# The same path every time, so the build cache serves the packages a
	# mutant leaves alone.
	rm -rf "$work/tree"
	mkdir "$work/tree"
	(cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) | tar -xf - -C "$work/tree"
	if ! (cd "$work/tree" && git apply "$patch"); then
		echo "FAIL $name: the patch does not apply"
		failed=1
		continue
	fi
	out=$(cd "$work/tree" && go test -count=1 -run "$run" "$pkg" 2>&1) || true
	if grep -q -- '--- FAIL' <<<"$out"; then
		echo "caught $name: $(grep -o -- '--- FAIL: [^ ]*' <<<"$out" | sed 's/--- FAIL: //' | sort -u | paste -sd, -)"
	else
		echo "FAIL $name: not caught by go test -run '$run' $pkg"
		tail -n 20 <<<"$out"
		failed=1
	fi
done
exit "$failed"

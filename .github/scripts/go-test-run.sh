#!/usr/bin/env bash
# go test for the CI steps that pick tests by -run regex. A rename can
# leave such a step matching nothing in a package it lists; go test then
# prints "ok <pkg> [no tests to run]" and exits 0, and the step would
# pass while checking nothing. This wrapper fails it instead.
#
# usage: .github/scripts/go-test-run.sh <go test arguments>
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test "$@" 2>&1 | tee "$out"
if grep -q 'no tests to run' "$out"; then
	echo "error: the -run filter matched no test in the package(s) above marked [no tests to run]" >&2
	exit 1
fi

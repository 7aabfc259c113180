#!/usr/bin/env bash
# Runs a gtest binary under --gtest_filter, failing when the filter — or
# any one of its positive patterns — selects no tests. The gtest this
# project builds against has no --gtest_fail_if_no_test_selected, so a
# renamed suite would otherwise drop out of a filtered run with exit 0.
# Usage: scripts/gtest_filter.sh BINARY 'Pat1*:Pat2*[-Neg*]' [GTEST_ARGS...]
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BINARY FILTER [GTEST_ARGS...]" >&2
  exit 2
fi
binary=$1
filter=$2
shift 2

# Counts the tests `pattern` selects; --gtest_list_tests prints each test
# on an indented line under its suite.
count_selected() {
  "$binary" --gtest_list_tests --gtest_filter="$1" | grep -c '^  ' || true
}

positive=${filter%%-*}
IFS=':' read -r -a patterns <<< "$positive"
for pattern in "${patterns[@]}"; do
  [[ -z "$pattern" ]] && continue
  if [[ "$(count_selected "$pattern")" -eq 0 ]]; then
    echo "gtest_filter.sh: pattern '$pattern' selects no tests in $binary" >&2
    exit 1
  fi
done
if [[ "$(count_selected "$filter")" -eq 0 ]]; then
  echo "gtest_filter.sh: filter '$filter' selects no tests in $binary" >&2
  exit 1
fi
exec "$binary" --gtest_filter="$filter" "$@"

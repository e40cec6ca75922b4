#!/usr/bin/env bash
# Fails when a `|`-alternative of any `-run` pattern in ci.yml matches no
# test in the module: `go test -run` passes silently on a pattern that
# names a renamed or deleted test, so a smoke step can shrink to nothing
# unnoticed. `-run '^$'` (benchmarks only) is the one pattern meant to
# match nothing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
tests=$(go test -list '.*' ./... | grep -E '^(Test|Fuzz|Example)')
stale=0
while read -r alt; do
  [ "$alt" = '^$' ] && continue
  if ! grep -qE -- "$alt" <<<"$tests"; then
    echo "ci.yml: -run alternative '$alt' matches no test" >&2
    stale=1
  fi
done < <(grep -oE -- "-run ('[^']+'|[^' ]+)" .github/workflows/ci.yml | sed -E "s/^-run //; s/^'(.*)'$/\1/" | tr '|' '\n' | sort -u)
exit $stale

#!/usr/bin/env bash
# Fails when a non-test function outside benchmark/ is reached by no
# shipped binary (every cmd/* and examples/* main, and the benchmark) and
# is not listed, with a reason, in .github/reach-allow.txt. Reachability
# is the linker's own: builds run with inlining off (-gcflags=all=-l) so
# an inlined call still shows as an edge, and -ldflags=-dumpdep prints
# every "caller -> callee" edge the linker kept. Closures (.funcN,
# .gowrapN), method values (-fm) and generic shape instances ([...])
# count for the function that declares them. Also fails on allowlist
# lines that no longer name an unreached function, so the list cannot
# go stale.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# reached: every symbol on either side of an edge, main.* renamed to the
# binary's import path, suffixes folded into the declaring function.
: >"$tmp/reached"
for dir in cmd/*/ examples/*/ benchmark/; do
  dir=${dir%/}
  if ! (cd "$dir" && go build -gcflags=all=-l -ldflags=-dumpdep -o "$tmp/bin" .) 2>"$tmp/dep"; then
    cat "$tmp/dep" >&2
    exit 1
  fi
  awk -v pkg="$mod/$dir" '
    function norm(s,  prev) {
      if (s ~ /^main\./) s = pkg substr(s, 5)
      do { prev = s; gsub(/\[[^][]*\]/, "", s) } while (s != prev)
      sub(/-fm$/, "", s)
      while (sub(/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$/, "", s)) {}
      return s
    }
    (i = index($0, " -> ")) > 0 {
      print norm(substr($0, 1, i - 1))
      print norm(substr($0, i + 4))
    }' "$tmp/dep" >>"$tmp/reached"
done
sort -u -o "$tmp/reached" "$tmp/reached"

# declared: pkgpath.Name, pkgpath.T.Name or pkgpath.(*T).Name for every
# top-level func in a non-test file outside benchmark/ (init excluded).
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' |
  sort | xargs awk -v mod="$mod" '
    FNR == 1 {
      dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
      pkg = dir == "" ? mod : mod "/" dir
    }
    /^func / {
      s = substr($0, 6)
      if (s ~ /^\(/) {
        recv = substr(s, 2); sub(/\).*/, "", recv)
        n = split(recv, f, " "); typ = f[n]; sub(/\[.*\]/, "", typ)
        sub(/^[^)]*\) */, "", s)
        if (typ ~ /^\*/) typ = "(" typ ")"
        prefix = typ "."
      } else prefix = ""
      name = s; sub(/[^A-Za-z0-9_].*/, "", name)
      if (prefix == "" && (name == "init" || name == "_")) next
      print pkg "." prefix name
    }' | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/reached" >"$tmp/unreached"

# allow: first field is the symbol, the rest of the line its reason.
bad=0
if awk '!/^(#|$)/ && NF < 2 { print "reach-allow.txt:" NR ": no reason given for " $1; e = 1 } END { exit e }' .github/reach-allow.txt >&2; then :; else bad=1; fi
awk '!/^(#|$)/ { print $1 }' .github/reach-allow.txt | sort -u >"$tmp/allowed"
missing=$(comm -23 "$tmp/unreached" "$tmp/allowed")
stale=$(comm -13 "$tmp/unreached" "$tmp/allowed")
if [ -n "$missing" ]; then
  echo "check-reach: no binary reaches these; delete them or list them with a reason in .github/reach-allow.txt:" >&2
  echo "$missing" | sed 's/^/  /' >&2
  bad=1
fi
if [ -n "$stale" ]; then
  echo "check-reach: .github/reach-allow.txt lists what is reached or no longer declared; drop the lines:" >&2
  echo "$stale" | sed 's/^/  /' >&2
  bad=1
fi
echo "check-reach: $(wc -l <"$tmp/declared") functions declared, $(wc -l <"$tmp/unreached") unreached, all allowlisted: $([ "$bad" = 0 ] && echo yes || echo no)"
exit "$bad"

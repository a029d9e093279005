#!/usr/bin/env bash
# Reachability gate: every func declared in a non-test internal/ file
# must be linked into some binary (cmd/*, examples/*, perfbench), or be
# listed in scripts/reach.allow with a test that calls it. Run from the
# repository root:
#
#   bash scripts/reach.sh        (or: make reach)
#
# The binaries are built with inlining off (-gcflags=all=-l), so a
# function that every caller inlines still shows up in `go tool nm`.
# Generic instantiation brackets are stripped from the symbol names, so
# expt.(*probeCell[...]).get matches its declaration. The gate also
# fails on an allowlist line whose function is now linked or no longer
# declared, and on one whose test is not declared in any _test.go file.
set -euo pipefail

allow=scripts/reach.allow
work=$(mktemp -d "${TMPDIR:-/tmp}/reach-XXXXXX")
trap 'rm -rf "$work"' EXIT
prefix="$(go list -m)/internal/"

go build -gcflags=all=-l -o "$work/bin/" ./cmd/... ./examples/...
(cd perfbench && go build -gcflags=all=-l -o "$work/bin/perfbench" .)

# Linked text symbols, relative to internal/, brackets and method-value
# suffixes stripped.
for bin in "$work"/bin/*; do go tool nm "$bin"; done |
	awk -v p="$prefix" '($2 == "T" || $2 == "t") && index($3, p) == 1 { print substr($3, length(p) + 1) }' |
	sed -E -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' -e 's/-fm$//' |
	sort -u > "$work/linked"

# Declared funcs as the linker names them: pkg.Name, pkg.Type.Name or
# pkg.(*Type).Name, each followed by its file:line.
find internal -name '*.go' ! -name '*_test.go' | sort | xargs awk '
/^func / {
	line = substr($0, 6); recv = ""
	if (line ~ /^\(/) {
		r = substr(line, 2, index(line, ")") - 2)
		line = substr(line, index(line, ")") + 1); sub(/^ +/, "", line)
		gsub(/\[[^]]*\]/, "", r); n = split(r, part, " ")
		recv = (part[n] ~ /^\*/) ? "(" part[n] ")." : part[n] "."
	}
	match(line, /^[A-Za-z0-9_]+/); name = substr(line, 1, RLENGTH)
	if (name == "init" && recv == "") next
	pkg = FILENAME; sub(/^internal\//, "", pkg); sub(/\/[^\/]*$/, "", pkg)
	print pkg "." recv name "\t" FILENAME ":" FNR
}' | sort > "$work/declared"

awk '!/^#/ && NF { print $1 "\t" $2 }' "$allow" | sort > "$work/allowed"

grep -rhoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
	'^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' . | cut -c6- | sort -u > "$work/tests"

# Unlinked functions that are not allowlisted.
awk -F'\t' 'FILENAME == ARGV[1] { linked[$1]; next }
	FILENAME == ARGV[2] { allowed[$1]; next }
	!($1 in linked) && !($1 in allowed) { print "unlinked: " $1 " (" $2 ")" }' \
	"$work/linked" "$work/allowed" "$work/declared" > "$work/report"
# Stale allowlist lines.
awk -F'\t' -v allow="$allow" 'FILENAME == ARGV[1] { linked[$1]; next }
	FILENAME == ARGV[2] { declared[$1]; next }
	FILENAME == ARGV[3] { tests[$1]; next }
	!($1 in declared) { print "stale " allow ": " $1 " is no longer declared"; next }
	$1 in linked { print "stale " allow ": " $1 " is linked by a binary now"; next }
	!($2 in tests) { print "stale " allow ": " $1 " names no declared test (" $2 ")" }' \
	"$work/linked" "$work/declared" "$work/tests" "$work/allowed" >> "$work/report"

if [ -s "$work/report" ]; then
	cat "$work/report" >&2
	echo "reach: delete each unlinked function, or list it in $allow with a test that calls it" >&2
	exit 1
fi
echo "reach: $(wc -l < "$work/declared") internal functions, $(wc -l < "$work/allowed") unlinked test references, all allowlisted"

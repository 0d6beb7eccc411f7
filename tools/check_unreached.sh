#!/usr/bin/env bash
# Fails when a function defined under src/ has no production caller: when an
# `nfvm::` function defined in the src archives (libnfvm_*.a) or in
# libnfvm_cli_setup.a survives in none of the production binaries (nfvm-sim,
# nfvm-serve, nfvm-serve-client, nfvm-report, the benches, the examples and
# perfbench with its daemon), unless tools/unreached_allowlist.txt lists it
# with a reason. It also fails on an allowlist entry that is reached or no
# longer defined, so the list cannot go stale.
#
#   check_unreached.sh BUILD_DIR PERFBENCH_BUILD_DIR
#
# BUILD_DIR is the repository built with tests off and benches and examples
# on; PERFBENCH_BUILD_DIR is perfbench/ built on its own. Both must be
# compiled with -O0 -fno-inline -ffunction-sections -fdata-sections and
# linked with -Wl,--gc-sections, so that each function sits in its own
# section and the linker drops every section no binary reaches (CI's
# unreached-function job shows the exact commands).
#
# A test is not a production caller: a function only tests need belongs in
# tests/reference or in the test that uses it. Benches count, and they link
# tests/reference, so a src function that only tests/reference calls looks
# reached; keep those out of src by hand.
#
# Limit: nm sees only functions the src archives emit. A header-only inline
# function that no src translation unit calls is never emitted there, so the
# gate cannot flag it.
set -euo pipefail
export LC_ALL=C

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR PERFBENCH_BUILD_DIR" >&2
  exit 2
fi
build=$1
perf=$2
allowlist="$(cd "$(dirname "$0")" && pwd)/unreached_allowlist.txt"

archives=("$build"/src/libnfvm_*.a "$build/tools/libnfvm_cli_setup.a")
required=("$build/tools/nfvm-sim" "$build/tools/nfvm-serve"
          "$build/tools/nfvm-serve-client" "$build/tools/nfvm-report"
          "$perf/perfbench" "$perf/nfvm/tools/nfvm-serve")
for f in "${archives[@]}" "${required[@]}" "$allowlist"; do
  if [ ! -f "$f" ]; then
    echo "check_unreached: missing $f" >&2
    exit 2
  fi
done
# Without per-function sections the linker keeps whole object files and
# every function would look reached.
if ! readelf -SW "$build/src/libnfvm_util.a" | grep '\.text\._ZN4nfvm' >/dev/null; then
  echo "check_unreached: $build was not compiled with -ffunction-sections" >&2
  exit 2
fi

binaries=()
for dir in "$build/tools" "$build/bench" "$build/examples" "$perf" "$perf/nfvm/tools"; do
  [ -d "$dir" ] || continue
  while IFS= read -r b; do binaries+=("$b"); done \
    < <(find "$dir" -maxdepth 1 -type f -perm -u+x | sort)
done
for kind in bench examples; do
  if ! printf '%s\n' "${binaries[@]}" | grep "^$build/$kind/" >/dev/null; then
    echo "check_unreached: no binary in $build/$kind (configure with benches and examples on)" >&2
    exit 2
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Functions (text symbols) whose qualified name is in namespace nfvm: a
# nested name _ZN...4nfvm, or an entity local to one (_ZZN...4nfvm, e.g. a
# lambda). Matching the mangled name drops std:: instantiations over nfvm
# types, whatever their signature mentions.
nfvm_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk 'NF == 3 && $2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?N[KVRO]*4nfvm/ { print $3 }' |
    sort -u
}

nfvm_functions "${archives[@]}" >"$tmp/defined"
nfvm_functions "${binaries[@]}" >"$tmp/kept"
comm -23 "$tmp/defined" "$tmp/kept" | c++filt | sort -u >"$tmp/unreached"

# Allowlist: one demangled name per line, each under a "# reason" comment
# (a blank line ends a reason).
awk -v file="$allowlist" '
  /^[[:space:]]*$/ { reason = 0; next }
  /^#/ { reason = 1; next }
  !reason { printf "check_unreached: %s:%d: entry without a reason: %s\n", file, NR, $0 > "/dev/stderr"; bad = 1 }
  { print }
  END { exit bad }' "$allowlist" | sort -u >"$tmp/allowed"

comm -23 "$tmp/unreached" "$tmp/allowed" >"$tmp/flagged"
comm -13 "$tmp/unreached" "$tmp/allowed" >"$tmp/stale"

status=0
if [ -s "$tmp/flagged" ]; then
  echo "check_unreached: $(wc -l <"$tmp/flagged") function(s) defined under src/ that no production binary keeps:"
  sed 's/^/  /' "$tmp/flagged"
  echo "Delete each one, move it into tests/reference or the test that uses it, or"
  echo "list it with a reason in tools/unreached_allowlist.txt."
  status=1
fi
if [ -s "$tmp/stale" ]; then
  echo "check_unreached: allowlist entries that are reached or no longer defined:"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "check_unreached: $(wc -l <"$tmp/defined") nfvm:: functions in the src archives;" \
       "all kept by ${#binaries[@]} binaries except $(wc -l <"$tmp/allowed") allowlisted"
fi
exit "$status"

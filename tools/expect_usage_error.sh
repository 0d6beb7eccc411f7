#!/usr/bin/env bash
# Passes iff COMMAND exits 2 with an "error: FLAG..." line on stderr and
# nothing before it: a bad flag value must be a usage error caught while the
# flags are parsed, not a crash, a silently truncated run or a failure after
# work has started. So stdout must stay empty and stderr must carry no "# "
# banner or progress line.
#
#   expect_usage_error.sh FLAG COMMAND [ARG...]
flag=$1
shift
errfile=$(mktemp)
trap 'rm -f "$errfile"' EXIT
stdout=$("$@" 2>"$errfile")
status=$?
stderr=$(cat "$errfile")
if [ "$status" -ne 2 ]; then
  echo "expected exit 2, got $status from: $*" >&2
  exit 1
fi
if ! grep -qF -e "error: $flag" <<<"$stderr"; then
  echo "no \"error: $flag\" line from: $*" >&2
  echo "$stderr" >&2
  exit 1
fi
if [ -n "$stdout" ] || grep -q '^# ' <<<"$stderr"; then
  echo "output before the usage error from: $*" >&2
  echo "$stdout" >&2
  echo "$stderr" >&2
  exit 1
fi

#!/usr/bin/env bash
# Passes iff COMMAND exits 2 with an "error: FLAG..." line on stderr: a bad
# flag value must be a usage error, not a crash or a silently truncated run.
#
#   expect_usage_error.sh FLAG COMMAND [ARG...]
flag=$1
shift
stderr=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit 2, got $status from: $*" >&2
  exit 1
fi
if ! grep -qF -e "error: $flag" <<<"$stderr"; then
  echo "no \"error: $flag\" line from: $*" >&2
  echo "$stderr" >&2
  exit 1
fi

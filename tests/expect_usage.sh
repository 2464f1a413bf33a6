#!/bin/sh
# Passes iff the command exits with status 2 and prints a usage line: how
# the bench and example binaries reject a malformed flag or environment
# knob, before doing any work.
#
#   tests/expect_usage.sh <command> [args...]
out=$("$@" 2>&1)
status=$?
if [ "$status" -ne 2 ]; then
  printf 'expected exit status 2, got %s\n%s\n' "$status" "$out"
  exit 1
fi
case "$out" in
  *usage:*) exit 0 ;;
esac
printf 'no usage line in:\n%s\n' "$out"
exit 1

#!/bin/sh
# Usage: expect_cli_error.sh BINARY FLAG [ARGS...]
#
# Runs BINARY with ARGS and passes only when it exits with status 2 and its
# stderr names FLAG: the contract of the strict bench command line
# (bench/cli.h).
bin=$1
flag=$2
shift 2
err=$("$bin" "$@" 2>&1 >/dev/null)
code=$?
printf '%s\n' "$err"
if [ "$code" -ne 2 ]; then
  echo "expected exit status 2, got $code"
  exit 1
fi
case $err in
  *"$flag"*) exit 0 ;;
esac
echo "stderr does not name $flag"
exit 1

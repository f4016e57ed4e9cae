#!/bin/sh
# Runs a command and passes iff it exits with CODE and prints
# "error [KIND]" (the CLI's classified-error line).
#
#   usage: expect_error.sh CODE KIND COMMAND [ARG...]
code="$1"
kind="$2"
shift 2
out="$("$@" 2>&1)"
rc=$?
printf '%s\n' "${out}"
if [ "${rc}" -ne "${code}" ]; then
  echo "expected exit ${code}, got ${rc}" >&2
  exit 1
fi
printf '%s\n' "${out}" | grep -qF "error [${kind}]" || {
  echo "expected 'error [${kind}]' in the output" >&2
  exit 1
}

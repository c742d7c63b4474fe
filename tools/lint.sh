#!/usr/bin/env sh
# Repo-invariant checker: the toolchain-independent half of the static
# gate (the clang-tidy half is -DMRCC_LINT=ON, or `tools/lint.sh --tidy`
# when clang-tidy is installed; the semantic half is tools/mrcc_lint.py,
# run automatically below when python3 is available). Scans the full
# C++ tree — src/, tests/, bench/, examples/ — for constructions this
# repo bans outright:
#
#   1. rand()/srand()       — not thread-safe and not reproducible; all
#                             randomness goes through common/rng.h.
#   2. raw new[]            — owning raw arrays bypass RAII; use
#                             std::vector or std::unique_ptr<T[]>.
#   3. #include <iostream>  — no code writes to std streams via iostream
#                             (report generation composes strings; CLI
#                             binaries use cstdio like the library).
#   4. missing #pragma once — every header must carry the guard.
#
# Semantic rules that need to understand the code — failpoint site names
# against the closed registry, metric/span taxonomy, unchecked
# Result::value(), the cell-storage encapsulation rule (formerly ban
# #5 here) and the one-pipeline rule — live in tools/mrcc_lint.py.
#
# Modes:
#   tools/lint.sh            bans + mrcc_lint.py
#   tools/lint.sh --format   clang-format check (--dry-run -Werror) over
#                            the same tree; exits non-zero on any drift
#                            from .clang-format. Skipped with a warning
#                            when clang-format is not installed (CI
#                            installs it; the gate is blocking there).
#   tools/lint.sh --tidy     bans + mrcc_lint.py + the clang-tidy gate
#                            (needs a compile database).
#
# A `lint-allow: <ban>` comment on the offending line suppresses it.
# Exits non-zero and prints every offending file:line when a ban is hit.
# Run from anywhere; the repo root is derived from this script's path.

set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

fail=0

# The full C++ tree: library, tests, benches and examples (examples use
# the .cpp extension). tools/ holds no C++ today; the find covers it so
# a future helper is linted the day it appears.
cpp_files=$(find src tests bench examples tools \
  -name '*.cc' -o -name '*.cpp' -o -name '*.h' | sort)
cpp_headers=$(find src tests bench examples tools -name '*.h' | sort)

# --format: the .clang-format conformance gate. Separate mode (not part
# of the default run) because it needs clang-format installed and is
# slower than the grep bans; CI runs it as its own blocking step.
if [ "${1:-}" = "--format" ]; then
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "lint.sh: clang-format not installed; skipping format check" >&2
    echo "lint.sh: OK (format skipped)"
    exit 0
  fi
  echo "lint.sh: clang-format --dry-run -Werror over the C++ tree"
  # shellcheck disable=SC2086
  if ! clang-format --dry-run -Werror $cpp_files; then
    echo "lint.sh: FAILED (run clang-format -i on the files above)" >&2
    exit 1
  fi
  echo "lint.sh: OK"
  exit 0
fi

report() {
  # $1 = ban description, $2 = offending file:line matches (if any).
  if [ -n "$2" ]; then
    echo "LINT: banned $1:" >&2
    echo "$2" | sed 's/^/  /' >&2
    fail=1
  fi
}

# 1. rand()/srand(). The left guard keeps identifiers like `grand()` out.
matches=$(echo "$cpp_files" \
  | xargs grep -nE '(^|[^_[:alnum:]])s?rand\(' \
  | grep -v 'lint-allow: rand' || true)
report 'rand()/srand() (use common/rng.h)' "$matches"

# 2. Raw array new. Matches `new T[` with qualified and template types;
#    std::vector / unique_ptr<T[]> wrappers never spell this.
matches=$(echo "$cpp_files" \
  | xargs grep -nE 'new [A-Za-z_][A-Za-z0-9_:<>, ]*\[' \
  | grep -v 'lint-allow: new-array' || true)
report 'raw new[] (use std::vector)' "$matches"

# 3. iostream anywhere in the tree.
matches=$(echo "$cpp_files" \
  | xargs grep -nE '^[[:space:]]*#[[:space:]]*include[[:space:]]*<iostream>' \
  | grep -v 'lint-allow: iostream' || true)
report '<iostream> include' "$matches"

# 4. Headers without #pragma once.
matches=$(for h in $cpp_headers; do
  grep -qE '^[[:space:]]*#[[:space:]]*pragma[[:space:]]+once' "$h" \
    || echo "$h"
done)
report 'header without #pragma once' "$matches"

# Semantic rules: failpoint sites, metric/span taxonomy, unchecked
# Result::value(), cell-storage encapsulation. python3 is present in CI
# and the dev image; a machine without it still gets the grep bans.
if command -v python3 >/dev/null 2>&1; then
  python3 tools/mrcc_lint.py || fail=1
else
  echo "lint.sh: python3 not found; skipping tools/mrcc_lint.py" >&2
fi

# Optional: run the clang-tidy gate too (needs clang-tidy and a compile
# database; configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON. The
# MRCC_LINT build reaches the same diagnostics during compilation).
if [ "${1:-}" = "--tidy" ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    db=""
    for d in build-lint build; do
      [ -f "$d/compile_commands.json" ] && db="$d" && break
    done
    if [ -n "$db" ]; then
      echo "lint.sh: running clang-tidy against $db/compile_commands.json"
      find src -name '*.cc' | sort | xargs clang-tidy -p "$db" --quiet \
        || fail=1
    else
      echo "lint.sh: no compile_commands.json found; configure with" >&2
      echo "  cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
      fail=1
    fi
  else
    echo "lint.sh: clang-tidy not installed; skipping tidy pass" >&2
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "lint.sh: FAILED" >&2
  exit 1
fi
echo "lint.sh: OK"

#!/usr/bin/env bash
# The LoC gates (ROADMAP "Surface diet"): prints the non-test Go lines of
# two package groups and fails when a group's total exceeds its budget —
# a ceiling against re-growth, so raising one needs a stated reason in
# CHANGES.md.
#
#   executor  internal/engine, vexec, plan, sqlsem   scripts/loc.budget
#   platform  internal/repository, server, webui     scripts/loc.platform.budget
#
#   scripts/loc.sh            # print both tables, gate against the budgets
set -u
cd "$(dirname "$0")/.."

fail=0
# gate <name> <budget file> <package>... prints the group's table and
# checks its total against the budget file.
gate() {
  local name=$1 budget_file=$2 total=0 n f pkg
  shift 2
  for pkg in "$@"; do
    n=0
    for f in internal/$pkg/*.go; do
      case "$f" in *_test.go) continue ;; esac
      n=$((n + $(wc -l <"$f")))
    done
    printf '%-20s %6d\n' "internal/$pkg" "$n"
    total=$((total + n))
  done
  local budget
  budget=$(cat "$budget_file")
  printf '%-20s %6d  (budget %d)\n' "$name total" "$total" "$budget"
  if [ "$total" -gt "$budget" ]; then
    echo "loc: non-test lines in the $name packages exceed the budget"
    fail=1
  fi
}

gate executor scripts/loc.budget engine vexec plan sqlsem
gate platform scripts/loc.platform.budget repository server webui
exit "$fail"

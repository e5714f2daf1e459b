#!/usr/bin/env bash
# The executor LoC budget (ROADMAP "Surface diet"): prints the non-test Go
# lines of the executor packages — the two executor families, the plan layer
# and the SQL value/ternary-logic layer they share (internal/sqlsem) — and
# fails when their total exceeds the
# number checked in beside this script (scripts/loc.budget). The budget is
# a ceiling against re-growth, not today's total: ordinary fixes fit under
# it; raising it needs a stated reason in CHANGES.md.
#
#   scripts/loc.sh            # print the table, gate against loc.budget
#
# Before internal/cexec was folded into vexec the same count (with cexec's
# 2,922 lines, without sqlsem) was 14,781; before the value layer moved into
# sqlsem it was 12,581 (engine+vexec+plan 12,390, sqlsem 191).
set -u
cd "$(dirname "$0")/.."

total=0
for pkg in engine vexec plan sqlsem; do
  n=0
  for f in internal/$pkg/*.go; do
    case "$f" in *_test.go) continue ;; esac
    n=$((n + $(wc -l <"$f")))
  done
  printf '%-18s %6d\n' "internal/$pkg" "$n"
  total=$((total + n))
done
budget=$(cat scripts/loc.budget)
printf '%-18s %6d  (budget %d)\n' total "$total" "$budget"
if [ "$total" -gt "$budget" ]; then
  echo "loc: non-test lines in the executor packages exceed the budget"
  exit 1
fi

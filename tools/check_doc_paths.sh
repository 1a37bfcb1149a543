#!/usr/bin/env bash
# Fail when a doc cites a repository path that does not exist.
#
# Every lib/, bin/, test/, bench/, docs/ and examples/ path cited in
# README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and the verify skill
# must exist.  A path right after ':' is a `git show REV:path` history
# citation and is skipped; X.exe stands for its source X.ml.
#
# Usage: bash tools/check_doc_paths.sh   (exit 1 on a stale path)
set -euo pipefail
shopt -s extglob
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md)
stale=0
while IFS=: read -r file line path; do
  p=${path%%+([.,/])}
  [[ $p == *.exe ]] && p=${p%.exe}.ml
  if [[ ! -e $p ]]; then
    echo "$file:$line: $path does not exist"
    stale=$((stale + 1))
  fi
done < <(grep -noP '(?<![\w./:~-])(lib|bin|test|bench|docs|examples)/[\w./-]*' "${docs[@]}")

if ((stale > 0)); then
  echo "$stale stale path citation(s)"
  exit 1
fi
echo "doc paths: OK"

#!/usr/bin/env bash
# Fail when a doc cites a repository path or library module that does
# not exist.
#
# Every lib/, bin/, test/, bench/, docs/ and examples/ path cited in
# README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and the verify skill
# must exist.  A path right after ':' is a `git show REV:path` history
# citation and is skipped; X.exe stands for its source X.ml.
#
# Every module citation Lib.Mod of one of the libraries below must have
# its source lib/<lib>/<mod>.ml (first letters lowercased).  Lines that
# contain `git show` cite history and are skipped.
#
# Usage: bash tools/check_doc_paths.sh   (exit 1 on a stale citation)
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

cite='(?<![\w.])(Wfq|Baselines|Sync|Harness|Obs|Sched|Primitives|Stats|Lincheck|Simsched)\.[A-Z]\w*'
while IFS=: read -r file line text; do
  [[ $text == *"git show"* ]] && continue
  for m in $(grep -oP "$cite" <<<"$text"); do
    lib=${m%%.*} mod=${m#*.}
    if [[ ! -e lib/${lib,}/${mod,}.ml ]]; then
      echo "$file:$line: $m has no lib/${lib,}/${mod,}.ml"
      stale=$((stale + 1))
    fi
  done
done < <(grep -nP "$cite" "${docs[@]}")

if ((stale > 0)); then
  echo "$stale stale citation(s)"
  exit 1
fi
echo "doc paths and modules: OK"

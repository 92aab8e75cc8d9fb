#!/bin/sh
# Record an intentional behaviour change in the committed behaviour corpus.
#
# Re-runs the BehaviourCorpus test (which always writes the corpus it
# computed into the build tree), copies that file over
# tests/golden/behaviour_corpus.txt and prints which lines changed, so the
# change is reviewed as a diff.
#
# Usage: tests/golden/regen.sh [build-dir]    (default: build)
set -eu
golden_dir=$(cd "$(dirname "$0")" && pwd)
build=${1:-build}
"$build/tests/streamha_integration_tests" \
  --gtest_filter='BehaviourCorpus.*' >/dev/null || true
cp "$build/tests/behaviour_corpus.actual.txt" "$golden_dir/behaviour_corpus.txt"
git -C "$golden_dir" --no-pager diff --stat -- behaviour_corpus.txt

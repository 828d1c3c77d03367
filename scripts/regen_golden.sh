#!/usr/bin/env bash
# Regenerate the golden regression corpus with the real CLI binaries:
#  * tests/golden/plan-{a,b,c,flat,reconf}.json, exactly what
#      klotski_synth --family=F --preset=X --scale=reduced | klotski_plan
#    produces;
#  * tests/golden/whatif-{a,b,c,flat,reconf}.json, klotski_whatif over
#    those plans with the per-case knobs below (whatif_golden_test.cpp
#    mirrors them), and tests/golden/whatif-d.json, 64 trajectories of seed
#    1 over the full-scale preset-D plan (gated by scripts/tier1.sh).
# Run after an *intentional* planner/checker/preset/what-if change, review
# the diff, and commit the updated files.
#
# Usage: scripts/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SYNTH="${BUILD}/tools/klotski_synth"
PLAN="${BUILD}/tools/klotski_plan"
WHATIF="${BUILD}/tools/klotski_whatif"
for bin in "${SYNTH}" "${PLAN}" "${WHATIF}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "regen_golden: ${bin} not built (cmake --build ${BUILD})" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
mkdir -p tests/golden

regen() {
  local family="$1" preset="$2" out="$3"
  "${SYNTH}" --family="${family}" --preset="${preset}" --scale=reduced \
    --out="${TMP}/${out}.npd.json"
  "${PLAN}" --npd="${TMP}/${out}.npd.json" --planner=astar \
    --out="${TMP}/${out}.json"
  # wall_seconds is the one nondeterministic field; commit it as 0 so the
  # corpus is stable across regeneration runs (the golden test zeroes it on
  # both sides before comparing).
  sed -E 's/"wall_seconds": [0-9.eE+-]+/"wall_seconds": 0/' \
    "${TMP}/${out}.json" > "tests/golden/${out}.json"
  echo "regenerated tests/golden/${out}.json"
}

for preset in A B C; do
  regen clos "${preset}" "plan-$(echo "${preset}" | tr '[:upper:]' '[:lower:]')"
done
regen flat A plan-flat
regen reconf A plan-reconf

# What-if reports over the golden plans; the knobs vary so the corpus
# covers WCMP, funneling, a short bisection, a plan unsafe at x1 and hot
# futures.
regen_whatif() {
  local name="$1"
  shift
  # Exit 1 only says some sampled future breaks the plan.
  "${WHATIF}" --npd="${TMP}/plan-${name}.npd.json" \
    --plan="tests/golden/plan-${name}.json" --trajectories=24 "$@" \
    --out="tests/golden/whatif-${name}.json" || [[ $? -eq 1 ]]
  echo "regenerated tests/golden/whatif-${name}.json"
}
regen_whatif a --seed=1
regen_whatif b --seed=2 --routing=wcmp
regen_whatif c --seed=3 --funneling=0.05 --margin-iterations=8
regen_whatif flat --seed=4 --theta=0.3
regen_whatif reconf --seed=5 --growth-max=0.02 --surge-factor-max=2.5

"${SYNTH}" --preset=D --scale=full --out="${TMP}/d.npd.json"
"${PLAN}" --npd="${TMP}/d.npd.json" --planner=astar --out="${TMP}/plan-d.json"
"${WHATIF}" --npd="${TMP}/d.npd.json" --plan="${TMP}/plan-d.json" \
  --trajectories=64 --seed=1 --out=tests/golden/whatif-d.json || [[ $? -eq 1 ]]
echo "regenerated tests/golden/whatif-d.json"

#!/usr/bin/env bash
# Compare the bytes that this checkout's validate, coeffs and approximate
# write with those of a base commit, the same commands run in both trees:
# every sha256 must be equal unless itofourier.__version__ differs between
# the trees (a versioned change may change bits), and then both digests are
# printed.  A missing or all-zero base (a new branch) skips the comparison.
#
#   .github/compare-outputs.sh BASE_COMMIT
#
# The base is fetched from origin if it is not in the repository, and
# checked out with git worktree into a temporary directory removed on exit.
set -euo pipefail

base="${1:-}"
if [ -z "${base//0/}" ]; then
  echo "no base commit given: nothing to compare"
  exit 0
fi
root="$(git rev-parse --show-toplevel)"
cd "$root"
git cat-file -e "$base^{commit}" 2>/dev/null || git fetch --quiet --no-tags --depth=1 origin "$base"
work="$(mktemp -d)"
trap 'git worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/base" "$base"

weights_121='[{"poly": [1.0]}, {"poly": [1.0, 1.0]}, {"poly": [1.0]}]'
spec_121='{"t": 0.0, "T": 1.0, "k": 3, "indices": [1, 2, 1], "weights": '"$weights_121"'}'
printf '%s' '{"spec": '"$spec_121"', "basis": "walsh"}' > "$work/walsh.json"
printf '%s' '{"spec": {"t": 0.0, "T": 1.0, "k": 2, "indices": [1, 2], "weights": [{"poly": [1.0]}, {"poly": [1.0]}]}, "basis": "legendre"}' > "$work/legendre.json"
printf '%s' '{"spec": '"$spec_121"'}' > "$work/spec.json"

outputs() {  # outputs TREE DIR: every command on TREE's src/, its outputs in DIR
  local tree="$1" dir="$2"
  mkdir -p "$dir"
  run() { PYTHONPATH="$tree/src" python -m itofourier "$@"; }
  run validate --config "$work/walsh.json" --orders 7,7,7 --paths 100 --steps 256 \
    --seed 11 --out "$dir/validate-walsh.json"
  # the largest tensor compared: a Parseval mass of 32 768 squares
  run validate --config "$work/walsh.json" --orders 31,31,31 --paths 100 --steps 256 \
    --seed 11 --out "$dir/validate-walsh-31.json"
  run validate --config "$work/legendre.json" --orders 0,0 --paths 300 --steps 256 --n 2 \
    --seed 11 --out "$dir/validate-legendre.json"
  # the benchmark's mc-walsh and mc-legendre runs: 13 and 38 chunks of 8
  # paths at N = 4096, filled by the calling thread and the run's worker
  run validate --config "$work/walsh.json" --orders 31,31,31 --paths 100 --steps 4096 \
    --seed 11 --out "$dir/validate-mc-walsh.json"
  run validate --config "$work/legendre.json" --orders 0,0 --paths 300 --steps 4096 --n 2 \
    --seed 11 --out "$dir/validate-mc-legendre.json"
  # Haar and Walsh 31**3: tables of eight blocks whose values repeat, so
  # that most rows take a value formatted and parsed once for many rows
  for table in legendre:3 trigonometric:4 haar:7 walsh:7 haar:31 walsh:31; do
    local basis="${table%:*}" order="${table#*:}" name="${table/:/-}"
    run coeffs --config "$work/spec.json" --basis "$basis" --orders "$order,$order,$order" \
      --out "$dir/coeffs-$name.csv"
    run approximate --table "$dir/coeffs-$name.csv" --seed 7 --out "$dir/approximate-$name.json"
  done
}
version() { PYTHONPATH="$1/src" python -c "import itofourier; print(itofourier.__version__)"; }

outputs "$work/base" "$work/out-base"
outputs "$root" "$work/out-head"
base_version="$(version "$work/base")" head_version="$(version "$root")"
differ=0
for file in "$work"/out-head/*; do
  name="$(basename "$file")"
  old="$(sha256sum < "$work/out-base/$name" | cut -d' ' -f1)"
  new="$(sha256sum < "$file" | cut -d' ' -f1)"
  if [ "$old" = "$new" ]; then
    echo "same    $new  $name"
  else
    echo "differs $old -> $new  $name"
    differ=1
  fi
done
if [ "$base_version" != "$head_version" ]; then
  echo "version $base_version -> $head_version: the outputs may change their bytes"
  exit 0
fi
if [ "$differ" = 1 ]; then
  echo "version $head_version is unchanged, but some outputs changed their bytes" >&2
  exit 1
fi
echo "version $head_version: every output keeps its bytes"

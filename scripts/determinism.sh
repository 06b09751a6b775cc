#!/usr/bin/env bash
# Write the outputs of the documented CLI commands into OUTDIR.
#
# Usage: OPENBLAS_NUM_THREADS=1 scripts/determinism.sh OUTDIR
#
# The package promises byte-identical output at a fixed BLAS thread count, so
# two runs, or a run of this tree and of another one (each with its own copy
# of this script), compare with `diff -r`.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
d="$1"
mkdir -p "$d"
cli="python -m anchored_minimax.cli"

$cli certify eagc --alphaR 0.125 --k 1000 --out "$d/eagc.csv" > "$d/eagc.out"
$cli certify lyapunov --problem ouyang-200 --alpha0 0.618 --iters 1000 \
  --out "$d/lyapunov.csv" > "$d/lyapunov.out"
$cli lowerbound --k 6 --algo eag-v > "$d/lowerbound.out"
$cli lowerbound --k 256 --algo eag-v --out "$d/lowerbound-256.csv" \
  > "$d/lowerbound-256.out"
# 65 checked iterates: the span check crosses a block boundary
$cli lowerbound --k 64 --algo popov --out "$d/lowerbound-popov.csv" \
  > "$d/lowerbound-popov.out"
# a hard instance with non-default R, D and n
$cli lowerbound --k 512 --R 1.7 --D 0.6 --n 530 --algo eg \
  --out "$d/lowerbound-512.csv" > "$d/lowerbound-512.out"
# the deepest instance: its closed-form basis is 2002 x 2002
$cli lowerbound --k 2000 --algo eag-v --out "$d/lowerbound-2000.csv" \
  > "$d/lowerbound-2000.out"
$cli flow --kind anchored > "$d/flow.out"
$cli flow --kind moreau-yosida --lam 0.01 > "$d/flow-spiral.out"
# runs above 10^4 iterations store and emit the thinned plan
for a in eag-c eag-v eg popov simgd-a alt-gda sim-gd; do
  $cli run --problem huber-default --algo $a --alpha 0.1 --iters 20000 \
    > "$d/run-$a.out"
  # every step formula on a 12-d operator, ALT-GDA's x/y split too
  $cli run --problem random-monotone:6:3 --algo $a --alpha 0.1 --iters 1000 \
    --dense > "$d/run-random-$a.out"
done
$cli certify lyapunov --problem bilinear-unit --alpha0 0.618 --iters 20000 \
  --out "$d/lyapunov-thinned.csv" > "$d/lyapunov-thinned.out"
# a run that hands its iterates to a keep that drops them
$cli certify lyapunov --problem ouyang-200 --alpha0 0.618 --iters 10000 \
  --out "$d/lyapunov-10000.csv" > "$d/lyapunov-10000.out"
# long tables, written a block of rows at a time
$cli run --problem ouyang-200 --algo eag-v --iters 50000 --dense \
  --out "$d/ouyang-dense.csv"
$cli certify eagc --alphaR 0.125 --k 50000 \
  --out "$d/eagc-50000.csv" > "$d/eagc-50000.out"
# the random affine operator, the one preset family not covered above
$cli run --problem random-monotone:6:3 --algo eag-v --alpha0 0.5 --iters 1000 \
  --dense --out "$d/random-monotone.csv"
# a hard instance named by its preset spec
$cli run --problem hard:6:1.3:0.7:9 --algo eag-v --alpha0 0.5 --iters 60 \
  --dense --out "$d/instance-run.csv"

"""Print 30-digit mpmath values for the integrals-unique specs in a JSON file.

Usage: python oracle.py SPECS.json  (writes a JSON list of lists of floats)

Every integral in the workload has a closed form, so the oracle evaluates
that form at 30 digits instead of integrating again.
"""

import json
import sys

import mpmath

mpmath.mp.dps = 30


def exact(kind, args):
    if kind == "gamma_integral":
        return mpmath.gamma(mpmath.mpf(args[0]))
    if kind == "gamma_log_integral":
        return mpmath.gamma(mpmath.mpf(args[0]) + 1)
    if kind == "beta_integral":
        return mpmath.beta(mpmath.mpf(args[0]), mpmath.mpf(args[1]))
    if kind == "euler_symbol":
        p, q, n = (mpmath.mpf(v) for v in args)
        return mpmath.beta(p / n, q / n) / n
    if kind == "integrate_finite":  # the integral of cos over (a, b)
        return mpmath.sin(mpmath.mpf(args[1])) - mpmath.sin(mpmath.mpf(args[0]))
    raise ValueError(f"unknown integral kind {kind!r}")


def main(path):
    with open(path, encoding="utf-8") as handle:
        units = json.load(handle)
    json.dump([[float(exact(kind, args)) for kind, args in batch] for batch in units],
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

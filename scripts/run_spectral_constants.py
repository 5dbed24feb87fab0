#!/usr/bin/env python3
"""Print the transfer-operator constants for one algorithm.

Usage: python scripts/run_spectral_constants.py [gauss|brun2|jp2] [grid] [cap]
"""

import sys

from cfstats import spectral
from cfstats.maps import BRUN2, GAUSS, JP2

DESCRIPTORS = {"gauss": GAUSS, "brun2": BRUN2, "jp2": JP2}
DEFAULTS = {"gauss": (512, 4096, (1, 2)), "brun2": (32, 128, (1, 2)), "jp2": (16, 16, ((1, 2), (0, 1)))}


def main(name: str, grid: int | None, cap: int | None) -> None:
    desc = DESCRIPTORS[name]
    g0, c0, targets = DEFAULTS[name]
    G, cap = grid or g0, cap or c0
    deriv = spectral.eigenvalue_derivatives(desc, targets, G=G, j_max=cap)
    res = deriv.solve
    print(f"{name}: lambda(1,0) = {res.eigenvalue:.8f} +- {res.tail_bar:.1e} "
          f"({res.iterations} iterations, residual {res.residual:.1e})")
    lam = spectral.frequency_constants(desc, targets, deriv=deriv)
    sigma = spectral.covariance_matrix(desc, targets, deriv=deriv)
    print(f"  entropy -lambda_s = {-deriv.lambda_s:.6f}")
    for t, v in zip(targets, lam):
        print(f"  Lambda_{t} = {v:.6f}")
    print(f"  Sigma = {sigma.tolist()}")
    if name != "jp2":
        w = spectral.nonarithmeticity_witnesses(desc)
        print(f"  witnesses: {w.values[0]:.10f}, {w.values[1]:.10f}")
        print(f"  ratio continued fraction: {w.ratio_cf}")


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "gauss",
        int(sys.argv[2]) if len(sys.argv) > 2 else None,
        int(sys.argv[3]) if len(sys.argv) > 3 else None,
    )

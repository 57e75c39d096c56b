"""Spectral radius of the interval iteration matrix as the grid refines.

Von Neumann analysis alone says both wide schemes amplify some interior
frequencies by at most about 1e-5 per step, which on its own would permit
only slow growth. The interval matrix couples the inflow and outflow
boundaries, and reflections can push its spectral radius above 1 by O(1/J):
the normalized excess J * (rho - 1) is then order one rather than shrinking.
For coeff2 the excess settles near +0.316 for every J scanned. For coeff1
the round-trip gain depends delicately on J, so the excess jumps around and
is positive only at resonant values such as J = 994. Either way the
reflection mechanism, not the tiny symbol excess, sets the growth rate.
The largest eigensolves are dense at dimension 995 and 1001; the closing
pinned rates reuse the scan's solves of those two matrices, so the script
runs in 2-3 s on a 2-core x86-64 machine with one BLAS thread.
"""

from __future__ import annotations

from advstab import stencil
from advstab.operators import Grid, assemble_matrix
from advstab.spectral import rho_vs_J_scan, spectral_radius


def scan(name: str, k: int, J_values: list[int]) -> None:
    scheme = stencil.builtin(name)
    print(f"\n{name} with order-{k} outflow extrapolation")
    print("      J          rho    J*(rho - 1)")
    for row in rho_vs_J_scan(scheme, k, J_values):
        print(f"  {row.J:5d}  {row.rho:.9f}  {row.normalized_excess:12.6f}")


def main() -> None:
    scan("coeff1", 1, [60, 120, 250, 500, 994])
    scan("coeff2", 2, [60, 120, 250, 500, 1000])

    # the pinned growth rates: (rho - 1) / dx at the reference resolutions
    for name, k, J in (("coeff1", 1, 994), ("coeff2", 2, 1000)):
        scheme = stencil.builtin(name)
        grid = Grid(J=J, lam=scheme.lam_float)
        result = spectral_radius(assemble_matrix(scheme, k, J))
        rate = (result.rho - 1.0) / grid.dx
        print(
            f"\n{name}, k = {k}, J = {J}: rho = {result.rho:.12f}, "
            f"(rho - 1)/dx = {rate:.6e}  [{result.method}, "
            f"residual {result.residual:.1e}]"
        )


if __name__ == "__main__":
    main()

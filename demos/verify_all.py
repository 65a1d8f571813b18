"""Run the finite-difference verification on all three canonical setups.

For each family: enumerate the analytic spectrum, inverse-iterate the
fourth-order Numerov pencil of the contour Hamiltonian (in Liouville
normal form on the arch) at every analytic energy, and print the
fourth-order Richardson-extrapolated eigenvalue error,
the Numerov residual at step h with its observed h -> h/2 order (about 4),
and the PT defect of the potential-contour pair. Each report's grid is the
stretched rule grid x = a sinh(s), s in [-S, S] on n points, sized from the
closed forms; grid points per level counts the stated and refined grids."""

import time

from ptspectra import verify_family
from ptspectra.numeric import FAMILIES


def report(params):
    t0 = time.perf_counter()
    rep = verify_family(params)
    dt = time.perf_counter() - t0
    g = rep.grid
    per_level = g.n_points + g.refined().n_points
    print(f"{rep.family}: passed={rep.passed} pt_defect={rep.pt_defect:.2e} ({dt:.3f}s)")
    print(f"  grid: s in [{g.x_min:.3f}, {g.x_max:.3f}], a={g.contour.a:.3g}, n={g.n_points}; "
          f"{per_level} grid points per level")
    for e in rep.entries:
        # eckart has no quasi-parity split, so the (sigma, tau) label is noise
        tag = f"N={e.N}" if rep.family == "eckart" else e.label
        print(f"  {tag}  E={e.E_analytic:+11.6f}  |dE|={e.abs_err:.2e}  "
              f"res(h)={e.residual:.2e}  order={e.order:.3f}  ok={e.converged}"
              + (f"  {e.note}" if e.note else ""))
    print()


if __name__ == "__main__":
    for family in FAMILIES.values():
        report(family.canonical)

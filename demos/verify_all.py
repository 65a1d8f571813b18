"""Run the finite-difference verification on all three canonical setups.

For each family: enumerate the analytic spectrum, inverse-iterate the
fourth-order Numerov pencil of the contour Hamiltonian (in Liouville
normal form on the arch) at every analytic energy, and print the
fourth-order Richardson-extrapolated eigenvalue error,
the Numerov residual at step h with its observed h -> h/2 order (about 4),
and the PT defect of the potential-contour pair."""

import time

from ptspectra import verify_family
from ptspectra.numeric import FAMILIES


def report(params):
    t0 = time.perf_counter()
    rep = verify_family(params)
    dt = time.perf_counter() - t0
    print(f"{rep.family}: passed={rep.passed} pt_defect={rep.pt_defect:.2e} ({dt:.1f}s)")
    for e in rep.entries:
        # eckart has no quasi-parity split, so the (sigma, tau) label is noise
        tag = f"N={e.N}" if rep.family == "eckart" else e.label
        print(f"  {tag}  E={e.E_analytic:+11.6f}  |dE|={e.abs_err:.2e}  "
              f"res(h)={e.residual:.2e}  order={e.order:.3f}  ok={e.converged}")
    print()


if __name__ == "__main__":
    for family in FAMILIES.values():
        report(family.canonical)

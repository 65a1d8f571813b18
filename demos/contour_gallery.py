"""Geometry of the two regularizing contours and the Liouville change of
variables.

The shifted line x - i*eps dodges the coordinate singularities by a
constant offset. The arch bends down only near the origin and flattens
into a strip of width pi - 2*eps; it is the image of the shifted line
under sinh(x - i*eps) = -i exp(i*xi). The last section rebuilds the
Hulthen potential from the Poschl-Teller one through that map.
"""

import math

import numpy as np

from ptspectra import (
    ArchContour,
    HulthenParams,
    ShiftedLine,
    eval_hulthen,
    hulthen_spectrum,
    liouville_potential,
    pt_defect,
    eval_rpt,
    PoschlTellerParams,
)

EPS = math.pi / 6


def print_path_profiles():
    xs = np.array([-8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0])
    line = ShiftedLine(0.4)
    arch = ArchContour(EPS)
    print("x        line xi              arch xi")
    for x in xs:
        zl, za = line.point(x), arch.point(x)
        print(f"{x:+5.1f}   {zl.real:+.4f}{zl.imag:+.4f}i    {za.real:+.4f}{za.imag:+.4f}i")
    print(f"arch apex height: {arch.apex:.6f} = ln(1/sin eps)")
    x = np.linspace(-10, 10, 2001)
    xi = arch.point(x)
    dev = np.max(np.abs(np.sinh(x - 1j * EPS) + 1j * np.exp(1j * xi)))
    print(f"defining identity residue on [-10, 10]: {dev:.2e}")
    print()


def print_pt_defects():
    xs = np.linspace(-8, 8, 201)
    d_line = pt_defect(lambda z: eval_rpt(PoschlTellerParams(3.5, 1.5, 0.3), z),
                       ShiftedLine(0.3), xs)
    d_arch = pt_defect(lambda z: eval_hulthen(HulthenParams(2.0, 2.0), z),
                       ArchContour(EPS), xs)
    print(f"PT defect, rpt on its line:    {d_line:.2e}")
    print(f"PT defect, hulthen on the arch: {d_arch:.2e}")
    print()


def liouville_roundtrip():
    p = HulthenParams(2.0, 2.0)
    level = hulthen_spectrum(p)[0]
    kappa, tb = level.aux["kappa"], level.aux["tau_beta"]

    def parent(r):
        return (tb ** 2 - 0.25) / np.sinh(r) ** 2 - (p.alpha ** 2 - 0.25) / np.cosh(r) ** 2

    xi = ArchContour(EPS).point(np.linspace(-3, 3, 101))
    image = liouville_potential(parent, kappa, xi)
    target = eval_hulthen(p, xi) - kappa ** 2
    print("Liouville image of the parent potential vs the closed form:")
    print(f"  kappa = {kappa}, max |difference| = {np.max(np.abs(image - target)):.2e}")


if __name__ == "__main__":
    print_path_profiles()
    print_pt_defects()
    liouville_roundtrip()

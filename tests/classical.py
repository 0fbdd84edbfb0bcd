"""Textbook uniform-grid stencils, written independently of the package.

These are the reference forms the non-uniform schemes must reduce to when
every cell has the same width h. Interior nodes only; boundary values stay
fixed.
"""

import numpy as np


def lax_wendroff_two_step(u, dt, h, flux):
    u = np.asarray(u, dtype=np.float64)
    f = flux(u)
    star = 0.5 * (u[:-1] + u[1:]) - (dt / (2.0 * h)) * (f[1:] - f[:-1])
    fstar = flux(star)
    out = u.copy()
    out[1:-1] = u[1:-1] - (dt / h) * (fstar[1:] - fstar[:-1])
    return out


def maccormack(u, dt, h, flux):
    u = np.asarray(u, dtype=np.float64)
    f = flux(u)
    star = u[:-1] - (dt / h) * (f[1:] - f[:-1])
    fstar = flux(star)
    # corrector at interior node i uses star[i] and star[i-1]
    dstar = star[1:] - (dt / h) * (fstar[1:] - fstar[:-1])
    out = u.copy()
    out[1:-1] = 0.5 * (u[1:-1] + dstar)
    return out


def forward_time_centered_space(u, dt, h, flux):
    u = np.asarray(u, dtype=np.float64)
    f = flux(u)
    out = u.copy()
    out[1:-1] = u[1:-1] - (dt / (2.0 * h)) * (f[2:] - f[:-2])
    return out


def front_window_two_pointer(values, fraction=0.9):
    """Smallest node window carrying ``fraction`` of the TV, by a two-pointer scan.

    Grows the window one jump at a time on the right and drops jumps on the
    left while the rest still carries the target; among windows of minimal
    length the leftmost one wins.
    """
    jumps = np.abs(np.diff(np.asarray(values, dtype=np.float64)))
    total = float(jumps.sum())
    if total <= 0.0:
        return None
    target = fraction * total
    best = None
    acc = 0.0
    lo = 0
    for hi in range(jumps.size):
        acc += jumps[hi]
        while acc - jumps[lo] >= target and lo < hi:
            acc -= jumps[lo]
            lo += 1
        if acc >= target and (best is None or hi - lo < best[1] - best[0]):
            best = (lo, hi)
    if best is None:
        return None
    return best[0], best[1] + 1

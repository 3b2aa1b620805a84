"""Pinching degeneration at desk scale.

The log-determinant of a degenerating family is assembled from a fixed
baseline, the cusp constant, Wolpert's series over the pinched
geodesics, and the synthetic small eigenvalues:

    log_det_estimate = baseline - m*c - wolpert_sum + small_eig_logsum

The unquantified o(1) offset of the underlying limit formula is *not*
folded in; sweeps demonstrate trends (signs and slopes), not absolute
values.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import zeta_engine
from .errors import DomainError

__all__ = ["PinchSweepRow", "wolpert_sum", "wolpert_asymptotic",
           "pinch_sweep", "rows_to_csv", "rows_from_csv", "WOLPERT_TOL"]


@dataclass(frozen=True)
class PinchSweepRow:
    ell: float
    wolpert_sum: float
    wolpert_asymptotic: float
    small_eig_logsum: float
    log_det_estimate: float
    baseline: float

    def __post_init__(self):
        for name in ("ell", "wolpert_sum", "wolpert_asymptotic",
                     "small_eig_logsum", "log_det_estimate", "baseline"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError("PinchSweepRow.%s must be finite" % name)


_CHUNK = 1 << 16
# absolute bound on the dropped tail of the Wolpert series
WOLPERT_TOL = 1e-12


def wolpert_sum(ell, s):
    """sum_{n>=1} e^{-n s ell} / (n (1 - e^{-n ell})).

    Summed in chunks until the geometric tail bound drops below
    WOLPERT_TOL.
    """
    if ell <= 0.0 or s <= 0.0:
        raise DomainError("wolpert_sum requires ell > 0 and s > 0")
    total = 0.0
    start = 1
    while True:
        n = np.arange(start, start + _CHUNK, dtype=float)
        total += float(np.sum(np.exp(-n * s * ell) / (n * (-np.expm1(-n * ell)))))
        start += _CHUNK
        # every further term is at most e^{-n s ell}/(start (1-e^{-start ell}))
        head = -math.expm1(-s * ell)
        tail = (math.exp(-start * s * ell)
                / (start * (-math.expm1(-start * ell)) * head))
        if tail < WOLPERT_TOL:
            return total


def wolpert_asymptotic(ell, s):
    """Small-ell form pi^2/(6 ell) + (s - 1/2) log(1 - e^{-s ell})."""
    if ell <= 0.0 or s <= 0.0:
        raise DomainError("wolpert_asymptotic requires ell > 0 and s > 0")
    if ell > 0.5:
        raise DomainError("wolpert_asymptotic limited to ell <= 0.5")
    return (math.pi ** 2 / (6.0 * ell)
            + (s - 0.5) * math.log(-math.expm1(-s * ell)))


def pinch_sweep(base, pinch_indices, ell_grid, baseline_logdet_hyp_alpha,
                surface):
    """One PinchSweepRow per value of a nonempty, decreasing ell grid.

    The small eigenvalues are synthetic: one eigenvalue ell^2 per pinched
    geodesic.  True small eigenvalues of a degenerating surface require a
    PDE solver; the quadratic rate keeps the +sum(log lambda) term
    subordinate to the Wolpert term.
    """
    grid = [float(x) for x in ell_grid]
    if not grid:
        raise DomainError("ell grid must not be empty")
    if any(x <= 0 for x in grid):
        raise DomainError("ell grid must be positive")
    if any(b - a <= 0 for a, b in zip(grid[1:], grid[:-1])):
        raise DomainError("ell grid must be decreasing")
    indices = list(pinch_indices)
    for i in indices:
        if not 0 <= i < len(base.entries):
            raise DomainError("pinch index %d out of range" % i)
    num_pinched = sum(base.entries[i].mult for i in indices)
    mc = zeta_engine.xi_prime0(surface.cusps)
    rows = []
    for ell in grid:
        eigs = [ell * ell] * num_pinched
        # ell^2 underflows to 0 below ell ~ 2e-162, where neither its log
        # nor the Wolpert series (about 1/ell terms) can be evaluated
        if any(v <= 0 for v in eigs):
            raise DomainError("small eigenvalues must be positive")
        wsum = num_pinched * wolpert_sum(ell, 1.0) if indices else 0.0
        wasym = (num_pinched * wolpert_asymptotic(ell, 1.0)
                 if indices and ell <= 0.5 else 0.0)
        logsum = float(sum(math.log(v) for v in eigs))
        est = baseline_logdet_hyp_alpha - mc - wsum + logsum
        rows.append(PinchSweepRow(ell, wsum, wasym, logsum, est,
                                  baseline_logdet_hyp_alpha))
    return rows


def rows_to_csv(rows, header_comments=()):
    buf = io.StringIO()
    for line in header_comments:
        buf.write("# %s\n" % line)
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["ell", "wolpert_sum", "wolpert_asymptotic",
                "small_eig_logsum", "log_det_estimate", "baseline"])
    for r in rows:
        w.writerow([format(getattr(r, f), ".17g") for f in (
            "ell", "wolpert_sum", "wolpert_asymptotic",
            "small_eig_logsum", "log_det_estimate", "baseline")])
    return buf.getvalue()


def rows_from_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return [PinchSweepRow(*(float(x) for x in r)) for r in rows[1:] if r]

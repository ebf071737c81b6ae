"""The converse in `Fraction`s: the references for the integer hull.

`ndt_lower_bound_at` is one cut's bound and `max_over_cuts` their pointwise
max, the converse as the paper states it. `fraction_lower_bound_curve` is
`lower_bound_curve` as it stood before its hull ran on ints: the same stack
pass over the cut lines, with each intercept, slope and break a `Fraction`
compared as one.
"""

from fractions import Fraction

from edgecache.bounds import NdtPoint, TradeoffCurve
from edgecache.errors import RangeError
from edgecache.model import as_fraction


def ndt_lower_bound_at(config, mu, ell: int) -> Fraction:
    """One member of the bound family: (K - (M-ell)+ (K-ell)+ mu) / ell."""
    m, k = config.num_ens, config.num_users
    if not isinstance(ell, int) or not 1 <= ell <= min(m, k):
        raise RangeError(f"ell {ell!r} outside {{1..{min(m, k)}}}")
    mu = as_fraction(mu)
    if not Fraction(1, m) <= mu <= 1:
        raise RangeError(f"mu {mu} outside feasible range [1/{m}, 1]")
    return Fraction(k - max(m - ell, 0) * max(k - ell, 0) * mu, ell)


def max_over_cuts(config, mu) -> tuple[Fraction, int]:
    """Exact max of the bound family and the smallest maximizing ell."""
    mu = as_fraction(mu)
    return max(((ndt_lower_bound_at(config, mu, ell), ell) for ell
                in range(1, min(config.num_ens, config.num_users) + 1)),
               key=lambda pair: pair[0])  # max keeps the first of a tie


def fraction_lower_bound_curve(config) -> TradeoffCurve:
    """The upper envelope of the cut lines over [1/M, 1], in Fractions."""
    m, k = config.num_ens, config.num_users
    lines: list[tuple[int, Fraction, Fraction]] = []  # (ell, intercept, slope)
    breaks: list[Fraction] = []
    for ell in range(1, min(m, k) + 1):
        intercept, slope = Fraction(k, ell), Fraction(-(m - ell) * (k - ell), ell)
        while lines:
            _, top_intercept, top_slope = lines[-1]
            overtake = (top_intercept - intercept) / (slope - top_slope)
            if not breaks or overtake > breaks[-1]:
                break
            del lines[-1], breaks[-1]
        if lines:
            breaks.append(overtake)
        lines.append((ell, intercept, slope))
    if breaks and breaks[-1] == 1:
        del lines[-1], breaks[-1]
    mus = sorted({Fraction(1, m), *breaks, Fraction(1)})
    points = [NdtPoint(mu, intercept + slope * mu)
              for mu, (_, intercept, slope) in zip(mus, [lines[0], *lines])]
    return TradeoffCurve(tuple(points), tuple(ell for ell, _, _ in lines))

"""The converse hull in `Fraction`s: the reference for the integer hull.

This is `lower_bound_curve` as it stood before its hull ran on ints: the
same stack pass over the cut lines, with each intercept, slope and break a
`Fraction` compared as one.
"""

from fractions import Fraction

from edgecache.bounds import NdtPoint, TradeoffCurve


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
    points = [NdtPoint(mu, intercept + slope * mu, "lower-bound")
              for mu, (_, intercept, slope) in zip(mus, [lines[0], *lines])]
    return TradeoffCurve(tuple(points), tuple(ell for ell, _, _ in lines))

"""A sweep's int rows as `Fraction`s, for tests that read rows by field."""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Row:
    """One grid point of a sweep; converse columns None outside perfect CSI."""

    mu: Fraction
    lower: Fraction | None
    ell_star: int | None
    upper: Fraction
    gap: Fraction | None
    tight: bool | None


def fraction_rows(table) -> list[Row]:
    """The rows of a `TradeoffTable`, each rational a reduced `Fraction`."""
    rows = []
    for mu_num, mu_den, lo_num, lo_den, ell, up_num, up_den in table.int_rows:
        upper = Fraction(up_num, up_den)
        lower = None if ell is None else Fraction(lo_num, lo_den)
        gap = None if ell is None else upper - lower
        rows.append(Row(Fraction(mu_num, mu_den), lower, ell, upper, gap,
                        None if ell is None else gap == 0))
    return rows

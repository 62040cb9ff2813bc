"""Column rounds of lone designs' branches, for the tests of the column
solves: a round as ``cef.integrate_each`` takes it, and branches by what a
round integrates."""

from __future__ import annotations

import numpy as np

from fasttrack.cef import column, take


def column_round(branches) -> tuple:
    """Lone designs' branches, each ((lo, hi, split_points), constants), as
    one column round: the lo, hi, kinks and constant columns that
    ``integrate_each`` takes."""
    windows, constants = zip(*branches)
    lo, hi, splits = zip(*windows)
    return (np.array(lo), np.array(hi), column([list(s) for s in splits]),
            tuple(map(column, zip(*constants))))


def branch_form(g, lo, hi, splits) -> tuple:
    """A branch by its window, its split points inside the window, and its
    integrand ``g`` at 15 points across it, all as Python floats."""
    z = np.linspace(lo, hi, 15)[None, :]
    return (float(lo), float(hi), sorted({float(x) for x in splits if lo < x < hi}),
            np.ravel(g(z)).tolist())


def round_forms(f, lo, hi, kinks, constants) -> list[tuple]:
    """The :func:`branch_form` of each window of a column round, given as
    ``integrate_each``'s arguments, ``f`` reading the window's constants."""
    lo, hi = (np.broadcast_to(end, len(kinks)) for end in (lo, hi))
    return [branch_form(lambda z, k=np.array([[i]]): f(z, *(take(c, k) for c in constants)),
                        lo[i], hi[i], kinks[i]) for i in range(len(kinks))]

"""Exact membership in ``conv(points) + cone(rays) + span(lines)``.

A test oracle that imports nothing from ``stratalg``.  Every float is a
rational number, so ``Fraction(float)`` holds the data exactly and the
simplex method below decides each question without rounding: the answer
is the one right answer for the floats given, with no tolerance.
"""

from fractions import Fraction


def member(x, points, rays=(), lines=()) -> bool:
    """Whether ``x`` lies in ``conv(points) + cone(rays) + span(lines)``.

    ``x`` is one vector and ``points``, ``rays`` and ``lines`` are lists of
    vectors of its length; ``points`` is nonempty.  The set holds ``x``
    where ``sum_i a_i p_i + sum_j b_j r_j + sum_l (c_l - e_l) q_l = x`` and
    ``sum_i a_i = 1`` have a solution with every ``a, b, c, e >= 0``."""
    lines = list(lines)
    cols = [*points, *rays, *lines, *([-v for v in q] for q in lines)]
    rows = [[Fraction(c[i]) for c in cols] for i in range(len(x))]
    rows.append([Fraction(int(j < len(points))) for j in range(len(cols))])
    return feasible(rows, [*map(Fraction, x), Fraction(1)])


def feasible(a: list, b: list) -> bool:
    """Whether ``a z = b`` has a solution ``z >= 0``, for ``a`` a list of
    rows of Fractions and ``b`` a list of Fractions.

    Phase 1 of the simplex method: one artificial variable per row, whose
    sum is minimized, with Bland's rule (the entering and the leaving
    variable are the lowest-numbered candidates), so it ends.  The system
    is feasible where that minimum is 0."""
    m, n = len(a), len(a[0])
    # the tableau [a | I | b], each row signed so that its b >= 0; the
    # artificial variables n..n+m-1 form the first basis
    tab = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        sign = -1 if rhs < 0 else 1
        tab.append([sign * v for v in row] + [Fraction(int(k == i)) for k in range(m)]
                   + [sign * rhs])
    basis = list(range(n, n + m))
    while True:
        # the reduced cost of each column: its cost (1 for an artificial
        # variable) less the sum of its entries in the rows of basic
        # artificial variables
        live = [tab[i] for i in range(m) if basis[i] >= n]
        enter = next((j for j in range(n + m)
                      if int(j >= n) - sum(row[j] for row in live) < 0), None)
        if enter is None:
            return all(tab[i][-1] == 0 for i in range(m) if basis[i] >= n)
        # the ratio test; ties go to the lowest-numbered basic variable
        leave = min((i for i in range(m) if tab[i][enter] > 0),
                    key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        basis[leave] = enter

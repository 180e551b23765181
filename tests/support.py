"""Helpers shared by the reference checks in the tests."""

from cakecut.cake import ONE, ZERO, InfeasibleCutError, Interval, Piece, frac


def support(v, positive=True):
    """The piece on which v's density is strictly positive, or with
    ``positive=False`` the piece on which it is zero."""
    return Piece.of(Interval(a, b) for a, b, d in v.segments() if (d > 0) == positive)


# Reference segment walks on Fraction arithmetic: the earlier bodies of
# PiecewiseConstantValuation.value_between, cut_point and node_cut, with
# ``self`` as ``v``.  The kernel's integer walks must agree with them.


def value_between(v, x, y):
    """Exact value of the interval [x, y]."""
    x, y = frac(x), frac(y)
    if not (ZERO <= x <= y <= ONE):
        raise ValueError(f"interval [{x}, {y}] not within [0, 1]")
    total = ZERO
    for a, b, d in v.segments():
        lo, hi = max(a, x), min(b, y)
        if lo < hi:
            total += d * (hi - lo)
    return total


def cut_point(v, x, r):
    """Leftmost y >= x with value_between(x, y) == r."""
    x, r = frac(x), frac(r)
    if r < 0 or not (ZERO <= x <= ONE):
        raise ValueError("need 0 <= x <= 1 and r >= 0")
    if r == 0:
        return x
    acc = ZERO
    for a, b, d in v.segments():
        lo = max(a, x)
        if lo >= b:
            continue
        mass = d * (b - lo)
        if d > 0 and acc + mass >= r:
            return lo + (r - acc) / d
        acc += mass
    raise InfeasibleCutError(f"requested value {r} exceeds remaining {acc}")


def node_cut(v, a, b, share):
    """``cut_point(a, share * value_between(a, b))`` for 0 <= share <= 1."""
    if not (ZERO <= a <= b <= ONE and ZERO <= share <= ONE):
        raise ValueError("need 0 <= a <= b <= 1 and 0 <= share <= 1")
    bounds = v.bounds
    overlaps = []
    total = ZERO
    for lo, hi, d in zip(bounds, bounds[1:], v.densities):
        if hi <= a:
            continue
        if lo >= b:
            break
        if d:
            lo = a if lo < a else lo
            mass = d * ((b if hi > b else hi) - lo)
            total += mass
            overlaps.append((lo, d, mass))
    rest = share * total
    if rest:
        for lo, d, mass in overlaps:
            if mass >= rest:
                return lo + rest / d
            rest -= mass
    return a

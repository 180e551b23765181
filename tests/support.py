"""Helpers shared by the reference checks in the tests."""

from cakecut.cake import Interval, Piece


def support(v, positive=True):
    """The piece on which v's density is strictly positive, or with
    ``positive=False`` the piece on which it is zero."""
    return Piece.of(Interval(a, b) for a, b, d in v.segments() if (d > 0) == positive)

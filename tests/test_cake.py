import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import support as reference
from cakecut import cake, io
from cakecut.cake import (
    MAX_DECIMAL_EXPONENT,
    Allocation,
    InfeasibleCutError,
    Interval,
    KeyedPoints,
    Piece,
    PiecewiseConstantValuation as PCV,
    Profile,
    frac,
    ival,
    normalized,
    validate_allocation,
)

F = Fraction

UNIFORM = PCV.uniform()
# density 1 on [0,1/2], 0 on [1/2,4/5], 5/2 on [4/5,1]
V2 = PCV.of(["1/2", "4/5"], ["1", "0", "5/2"])
# density 0 on [0,1/2], 2 on [1/2,1]
V1 = PCV.of(["1/2"], ["0", "2"])


def rand_fraction(rng, denom=24):
    return F(rng.randrange(0, denom + 1), denom)


def rand_piece(rng, denom=24):
    cuts = sorted(rand_fraction(rng, denom) for _ in range(4))
    return Piece.of([ival(cuts[0], cuts[1]), ival(cuts[2], cuts[3])])


def rand_valuation(rng, max_breakpoints=3, denom=12):
    m = rng.randrange(0, max_breakpoints + 1)
    points = sorted({F(rng.randrange(1, denom), denom) for _ in range(m)})
    dens = [F(rng.randrange(0, 5)) for _ in range(len(points) + 1)]
    if all(d == 0 for d in dens):
        dens[0] = F(1)
    return normalized(points, dens)


class TestValues:
    def test_uniform_half(self):
        assert UNIFORM.value(Piece.interval("1/4", "3/4")) == F(1, 2)

    def test_empty_piece_is_zero(self):
        assert V2.value(Piece.empty()) == 0

    def test_top_segment_mass(self):
        assert V2.value(Piece.interval("4/5", "1")) == F(1, 2)

    def test_whole_cake_is_one(self):
        for v in (UNIFORM, V1, V2):
            assert v.value(Piece.whole()) == 1

    def test_additivity_random(self):
        rng = random.Random(7)
        for _ in range(200):
            v = rand_valuation(rng)
            x = rand_piece(rng)
            y = rand_piece(rng).subtract(x)
            assert v.value(x.union(y)) == v.value(x) + v.value(y)


class TestPieceAlgebra:
    def test_union_merges_adjacent(self):
        assert Piece.interval(0, "1/2").union(Piece.interval("1/2", 1)) == Piece.whole()

    def test_intersection_at_point_is_empty(self):
        p = Piece.interval(0, "1/2").intersect(Piece.interval("1/2", 1))
        assert p.is_empty and p.measure == 0

    def test_subtract_splits(self):
        got = Piece.whole().subtract(Piece.interval("1/4", "1/2"))
        assert got == Piece.of([ival(0, "1/4"), ival("1/2", 1)])

    def test_canonicalization_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            p = rand_piece(rng)
            assert Piece.of(p.intervals) == p

    def test_measure_modular_and_monotone(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b = rand_piece(rng), rand_piece(rng)
            union, inter = a.union(b), a.intersect(b)
            assert union.measure == a.measure + b.measure - inter.measure
            assert inter.measure <= a.measure <= union.measure

    def test_zero_length_intervals_dropped(self):
        assert Piece.of([ival("1/3", "1/3")]).is_empty

    def test_complement_of_canonical_piece(self):
        rng = random.Random(13)
        for _ in range(200):
            p = rand_piece(rng)
            gaps = p.complement()
            assert Piece.of(gaps.intervals) == gaps
            assert gaps.union(p) == Piece.whole()
            assert gaps.intersect(p).is_empty


class TestPieceOrdered:
    """Spans of int keys over a scale, read through :class:`KeyedPoints`."""

    def test_merges_touching_spans(self):
        p = Piece.ordered([(0, 2), (2, 4), (6, 7), (7, 8)], KeyedPoints(8, []))
        assert p.intervals == (ival(0, "1/2"), ival("3/4", 1))

    def test_no_spans_is_empty(self):
        assert Piece.ordered([], KeyedPoints(1, [])) == Piece.empty()

    @pytest.mark.parametrize("spans, message", [
        ([(4, 4)], "empty span"),
        ([(6, 4)], "empty span"),
        ([(0, 6), (3, 9)], "starts before 1/2"),
        ([(6, 12), (0, 3)], "starts before 1"),
    ], ids=["zero-length", "reversed", "overlapping", "out-of-order"])
    def test_rejects_non_canonical_input(self, spans, message):
        with pytest.raises(ValueError, match=message):
            Piece.ordered(spans, KeyedPoints(12, []))

    def test_rejects_span_outside_the_cake(self):
        with pytest.raises(ValueError, match="not within"):
            Piece.ordered([(6, 18)], KeyedPoints(12, []))

    @settings(max_examples=200, deadline=None)
    @given(ends=st.lists(st.integers(0, 24), unique=True, max_size=12),
           keep=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_matches_sorting_constructor(self, ends, keep):
        # consecutive grid keys; dropping some spans leaves gaps, keeping
        # neighbours leaves touching spans to merge
        keys = sorted(ends)
        spans = [(lo, hi) for (lo, hi), k in zip(zip(keys, keys[1:]), keep) if k]
        assert Piece.ordered(spans, KeyedPoints(24, [])) == Piece.of(
            Interval(F(lo, 24), F(hi, 24)) for lo, hi in spans)


class TestPieceOrderedOnKeys:
    """Against the earlier body on ``Fraction`` spans, kept in support.py."""

    @settings(max_examples=200, deadline=None)
    @given(scale=st.integers(1, 60), data=st.data())
    def test_matches_fraction_spans(self, scale, data):
        ends = sorted(data.draw(st.sets(st.integers(0, scale), max_size=12)))
        keep = data.draw(st.lists(st.booleans(), min_size=12, max_size=12))
        known = data.draw(st.sets(st.sampled_from(ends))) if ends else set()
        points = KeyedPoints(scale, [(key, F(key, scale)) for key in known])
        own = dict(points)
        spans = [(lo, hi) for (lo, hi), k in zip(zip(ends, ends[1:]), keep) if k]
        piece = Piece.ordered(spans, points)
        assert piece == reference.ordered([(F(lo, scale), F(hi, scale)) for lo, hi in spans])
        for iv in piece.intervals:
            assert type(iv.lo) is type(iv.hi) is F
        # a key given at construction reads as the object given with it
        for key, x in own.items():
            assert points[key] is x

    @pytest.mark.parametrize("spans, message", [
        ([(8, 8)], r"empty span \[1/3, 1/3\]"),
        ([(12, 8)], r"empty span \[1/2, 1/3\]"),
        ([(0, 12), (6, 18)], r"span \[1/4, 3/4\] starts before 1/2"),
        ([(12, 24), (0, 6)], r"span \[0, 1/4\] starts before 1$"),
        ([(-6, 12)], r"interval \[-1/4, 1/2\] not within \[0, 1\]"),
        ([(0, 6), (12, 36)], r"interval \[1/2, 3/2\] not within \[0, 1\]"),
    ], ids=["zero-length", "reversed", "overlapping", "out-of-order", "below-0", "past-1"])
    def test_rejects_what_fraction_spans_reject(self, spans, message):
        with pytest.raises(ValueError, match=message):
            Piece.ordered(spans, KeyedPoints(24, []))
        with pytest.raises(ValueError, match=message):
            reference.ordered([(F(lo, 24), F(hi, 24)) for lo, hi in spans])


@st.composite
def raw_valuations(draw):
    """``(bounds, densities)`` of a valid valuation on the 1/12 grid, broken
    in none, one or several of the ways construction refuses; integral values
    are sometimes ints."""
    points = draw(st.lists(st.integers(1, 11), max_size=4, unique=True))
    bounds = [F(0), *sorted(F(p, 12) for p in points), F(1)]
    widths = [b - a for a, b in zip(bounds, bounds[1:])]
    weights = [draw(st.integers(0, 4))]
    for _ in widths[1:]:                    # adjacent weights differ
        weights.append((weights[-1] + draw(st.integers(1, 4))) % 5)
    if not any(weights):
        weights[0] = 1
    total = sum(w * width for w, width in zip(weights, widths))
    densities = [w / total for w in weights]
    for breakage in sorted(draw(st.sets(st.sampled_from(
            ["scale", "equal", "order", "negative", "length", "span"])))):
        j = draw(st.integers(0, max(len(densities) - 1, 0)))
        if breakage == "scale":             # not normalized
            factor = draw(st.sampled_from([F(1, 2), F(3, 4), F(2)]))
            densities = [d * factor for d in densities]
        elif breakage == "equal" and j > 0:
            densities[j] = densities[j - 1]
        elif breakage == "order" and len(bounds) > 2:
            i = draw(st.integers(1, len(bounds) - 2))
            bounds[i] = draw(st.sampled_from([bounds[i - 1], bounds[i + 1], F(13, 12)]))
        elif breakage == "negative" and densities:
            densities[j] = -densities[j] if densities[j] else F(-1)
        elif breakage == "length":
            densities = draw(st.sampled_from([densities[:-1], densities + [F(1)]]))
        elif breakage == "span":
            bounds = draw(st.sampled_from([bounds[:1], [F(1, 24), *bounds[1:]],
                                           [*bounds[:-1], F(23, 24)]]))
    if draw(st.booleans()):
        bounds = [int(b) if b.denominator == 1 else b for b in bounds]
        densities = [int(d) if d.denominator == 1 else d for d in densities]
    return tuple(bounds), tuple(densities)


class TestValuationConstruction:
    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="total mass"):
            PCV.of(["1/2"], ["1", "2"])

    def test_normalize_helper(self):
        v = normalized(["1/2"], [1, 3])
        assert v.value_between(0, "1/2") == F(1, 4)

    def test_equal_densities_merge(self):
        v = PCV.of(["1/4", "1/2"], [2, 2, 0])
        assert v.breakpoints == (F(1, 2),)

    @pytest.mark.parametrize("breakpoints, densities", [
        (["3/2"], [1, 1]),
        (["-1/2"], [1, 1]),
        (["1/2", "1/4"], [1, 1, 1]),
        (["1/2", "1/2"], [1, 1, 1]),
        (["0"], [1, 1]),
    ], ids=["beyond-one", "below-zero", "decreasing", "repeated", "at-zero"])
    def test_rejects_unordered_breakpoints_between_equal_densities(
            self, breakpoints, densities):
        # merging the equal densities would hide these breakpoints
        with pytest.raises(ValueError, match="strictly increasing"):
            PCV.of(breakpoints, densities)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError, match="non-negative"):
            PCV.of(["1/2"], ["3", "-1"])

    def test_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            frac(0.8)

    def test_construction_refuses_float_fields(self):
        with pytest.raises(TypeError, match="refusing inexact float 1.0"):
            PCV((F(0), 1.0), (1.0,))
        with pytest.raises(TypeError, match="refusing inexact float 0.0"):
            Interval(0.0, F(1))
        with pytest.raises(TypeError, match="'1/2' is not an int or a Fraction"):
            PCV((F(0), "1/2", F(1)), (F(1), F(1)))

    @settings(max_examples=400, deadline=None)
    @given(raw=raw_valuations())
    def test_refuses_exactly_what_the_fraction_checks_refused(self, raw):
        bounds, densities = raw
        try:
            reference.check_valuation(bounds, densities)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                PCV(bounds, densities)
            assert str(caught.value) == str(exc)
            return
        lcm_b = math.lcm(*(F(b).denominator for b in bounds))
        lcm_d = math.lcm(*(F(d).denominator for d in densities))
        keys = tuple((b * lcm_b).numerator for b in map(F, bounds))
        weights = tuple((d * lcm_d).numerator for d in map(F, densities))
        prefix = tuple(sum(d * (b - a) for a, b, d in zip(keys[:j], keys[1:j], weights))
                       for j in range(1, len(keys) + 1))
        assert PCV(bounds, densities).integer_image == (lcm_b, lcm_d, keys, weights, prefix)

    def test_decimal_string_exact(self):
        assert frac("0.8") == F(4, 5)

    def test_indicator_on_piece(self):
        v = PCV.on_piece(Piece.of([ival(0, "1/4"), ival("1/2", "3/4")]))
        assert v.value(Piece.interval(0, "1/4")) == F(1, 2)
        assert v.value(Piece.interval("1/4", "1/2")) == 0


@st.composite
def step_inputs(draw, masses):
    """``(points, values)`` for ``from_masses`` (``masses=True``) or ``of``:
    points on a 1/12 grid, in order or sometimes repeated, out of order or
    off the cake; small int weights, zeros and equal neighbours included,
    rescaled to unit total mass or, sometimes, not; sometimes one value too
    few or too many; each number spelled as an int, a string or a Fraction."""
    if draw(st.booleans()):
        points = sorted(draw(st.sets(st.integers(1, 11), max_size=4)))
    else:
        points = draw(st.lists(st.integers(-1, 13), max_size=4))
    points = [F(p, 12) for p in points]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(points) + 1,
                            max_size=len(points) + 1))
    if draw(st.booleans()):                 # equal-density neighbours
        j = draw(st.integers(0, len(points)))
        weights = weights[:j] + [weights[j - 1] if j else 1] + weights[j + 1:]
    bounds = [F(0), *points, F(1)]
    widths = [b - a for a, b in zip(bounds, bounds[1:])]
    if masses:
        values = [F(w * x) for w, x in zip(weights, widths)]
    else:
        values = [F(w) for w in weights]
    total = sum(w * x for w, x in zip(weights, widths))
    if total > 0 and draw(st.integers(0, 4)):
        values = [v / total for v in values]
    values = draw(st.sampled_from([values, values[:-1], values + [F(0)], values + [F(1, 3)]])
                  if draw(st.integers(0, 3)) == 0 else st.just(values))
    spell = st.sampled_from([lambda f: f, str, as_int])
    return ([draw(spell)(p) for p in points], [draw(spell)(v) for v in values])


def built(builder, *args):
    """The valuation `builder` returns, or the class of its error."""
    try:
        return builder(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc)


@st.composite
def normalize_inputs(draw):
    """:func:`step_inputs` for ``of``, sometimes with one value negated or
    spelled as a float."""
    points, values = draw(step_inputs(masses=False))
    if values and draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, len(values) - 1))
        values[j] = draw(st.sampled_from([-1 - F(values[j]), float(F(values[j]))]))
    return points, values


def built_or_raised(builder, *args):
    """The valuation `builder` returns with its integer image, or the type
    and message of its error."""
    try:
        v = builder(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return v, v.integer_image


class TestStepBuilders:
    """``of``, ``from_masses`` and ``normalized`` on integer keys against
    their earlier ``Fraction`` bodies: an equal valuation or the same error
    class (for ``normalized``, the same integer image or the same error
    type and message)."""

    @settings(max_examples=400, deadline=None)
    @given(args=step_inputs(masses=False))
    def test_of_matches_fraction_reference(self, args):
        assert built(PCV.of, *args) == built(reference.of, *args)

    @settings(max_examples=400, deadline=None)
    @given(args=step_inputs(masses=True))
    def test_from_masses_matches_fraction_reference(self, args):
        points, masses = args
        expected = built(reference.from_masses, points, masses)
        if expected is ZeroDivisionError or len(masses) > len(points) + 1:
            expected = ValueError           # refused now, see the tests below
        assert built(PCV.from_masses, points, masses) == expected

    @settings(max_examples=400, deadline=None)
    @given(args=normalize_inputs())
    @example(args=(["1/2"], [0]))                   # wrong length, zero total
    @example(args=(["1/2"], [0, 0, 1]))             # the extra density not summed
    @example(args=(["1/2"], [1, 1, 1]))             # one density too many
    @example(args=(["1/2", "1/4"], [1, 0, 3]))      # out of order, positive total
    @example(args=(["1/2", "1/4"], [0, 3, 0]))      # out of order, negative total
    @example(args=(["1/2"], [1, -1]))
    def test_normalized_matches_fraction_reference(self, args):
        assert built_or_raised(normalized, *args) == built_or_raised(reference.normalized, *args)

    def test_from_masses_refuses_a_mass_past_the_last_segment(self):
        with pytest.raises(ValueError, match="^need one mass per segment$"):
            PCV.from_masses(["1/2"], ["1/2", "1/2", "1/3"])

    @pytest.mark.parametrize("points", [["1/3", "1/3"], ["0", "1/2"], ["1/2", "1"]],
                             ids=["repeated", "at-zero", "at-one"])
    def test_from_masses_refuses_a_repeated_point(self, points):
        with pytest.raises(ValueError, match="^bounds must be strictly increasing$"):
            PCV.from_masses(points, ["1/2", "0", "1/2"])


class TestFromChunks:
    def test_unsorted_chunks(self):
        v = PCV.from_chunks([(F(3, 4), F(1), F(2)), (F(0), F(1, 4), F(2))])
        assert v == PCV.of(["1/4", "3/4"], [2, 0, 2])

    def test_gaps_at_both_ends_are_zero(self):
        v = PCV.from_chunks([(F(1, 4), F(3, 4), F(2))])
        assert v.bounds == (0, F(1, 4), F(3, 4), 1)
        assert v.densities == (0, 2, 0)

    def test_adjacent_equal_densities_merge(self):
        v = PCV.from_chunks([(F(1, 2), F(1), F(1)), (F(0), F(1, 2), F(1))])
        assert v == UNIFORM and v.breakpoints == ()

    def test_matches_on_piece(self):
        piece = Piece.of([ival(0, "1/4"), ival("1/2", "3/4")])
        assert PCV.from_chunks([(F(1, 2), F(3, 4), F(2)), (F(0), F(1, 4), F(2))]) \
            == PCV.on_piece(piece)


class TestHungry:
    def test_uniform_is_hungry(self):
        assert UNIFORM.is_hungry

    def test_zero_segment_not_hungry(self):
        assert not V1.is_hungry

    def test_two_positive_segments(self):
        assert PCV.of(["1/2"], ["1/2", "3/2"]).is_hungry


class TestCutPoint:
    def test_uniform_median(self):
        assert UNIFORM.cut_point(0, "1/2") == F(1, 2)

    def test_front_loaded(self):
        v = PCV.of(["1/2"], [2, 0])
        assert v.cut_point(0, "1/2") == F(1, 4)

    def test_zero_target_returns_start(self):
        v = PCV.of(["1/2"], [2, 0])
        assert v.cut_point("1/2", 0) == F(1, 2)

    def test_leftmost_with_trailing_zero(self):
        v = PCV.of(["1/2"], [2, 0])
        assert v.cut_point(0, 1) == F(1, 2)

    def test_infeasible_raises(self):
        v = PCV.of(["1/2"], [2, 0])
        with pytest.raises(InfeasibleCutError):
            v.cut_point("1/2", "1/10")

    def test_consistency_with_eval(self):
        rng = random.Random(13)
        for _ in range(300):
            v = rand_valuation(rng)
            x = rand_fraction(rng)
            y = x + rand_fraction(rng) * (1 - x)
            r = v.value_between(x, y)
            cut = v.cut_point(x, r)
            assert cut <= y
            assert v.value_between(x, cut) == r


GRIDS = (7, 11, 13, 24)


@st.composite
def grid_valuations(draw):
    """Breakpoints on one of the coprime GRIDS, small int densities (zero
    segments included) rescaled to unit mass."""
    g = draw(st.sampled_from(GRIDS))
    points = sorted(draw(st.lists(st.integers(1, g - 1), unique=True, max_size=4)))
    dens = draw(st.lists(st.integers(0, 4), min_size=len(points) + 1,
                         max_size=len(points) + 1).filter(any))
    return normalized([F(p, g) for p in points], dens)


def outcome(walk, *args):
    """The walk's result, or its error, with its type."""
    try:
        result = walk(*args)
    except ValueError as exc:           # InfeasibleCutError included
        return type(exc), str(exc)
    return type(result), result


def as_int(f):
    return int(f) if f.denominator == 1 else f


class TestIntegerWalks:
    @settings(max_examples=400, deadline=None)
    @given(v=grid_valuations(), data=st.data())
    def test_match_fraction_reference(self, v, data):
        # query points on the valuation's breakpoints and on another grid,
        # one step past either end of the cake included
        g = data.draw(st.sampled_from(GRIDS))
        point = st.sampled_from(v.bounds) | st.integers(-1, g + 1).map(lambda i: F(i, g))
        x = data.draw(point)
        y = data.draw(point | st.just(x))
        share = data.draw(st.sampled_from([F(0), F(1)]) | st.fractions(-1, 2, max_denominator=12))
        remaining = reference.value_between(v, x, 1) if 0 <= x <= 1 else F(0)
        r = data.draw(st.sampled_from([F(0), remaining, remaining + F(1, g), share * remaining])
                      | st.fractions(-1, 1, max_denominator=24))
        arg = data.draw(st.sampled_from([lambda f: f, str, as_int]))
        assert outcome(v.value_between, arg(x), arg(y)) \
            == outcome(reference.value_between, v, arg(x), arg(y))
        assert outcome(v.cut_point, arg(x), arg(r)) \
            == outcome(reference.cut_point, v, arg(x), arg(r))

    def test_image_stays_out_of_identity(self):
        points, masses = ["1/7", "6/13"], ["1/3", "0", "2/3"]
        v = PCV.of(points, ["7/3", "0", "26/21"])
        twin = PCV.from_masses(points, masses)
        chunks = PCV.from_chunks([(F(6, 13), F(1), F(26, 21)), (F(0), F(1, 7), F(7, 3))])
        before = (repr(v), hash(v), io.canonical_dumps(io.valuation_to_json(v)))
        assert v.value_between(0, 1) == 1
        assert v == twin == chunks
        assert (repr(v), hash(v), io.canonical_dumps(io.valuation_to_json(v))) == before
        assert (repr(twin), hash(twin)) == before[:2]
        assert v.integer_image == twin.integer_image == chunks.integer_image \
            == (91, 21, (0, 13, 42, 91), (49, 0, 26), (0, 637, 637, 1911))


class TestValidateAllocation:
    def test_valid_split(self):
        profile = Profile.of([UNIFORM, UNIFORM])
        alloc = Allocation.of([Piece.interval(0, "1/2"), Piece.interval("1/2", 1)])
        assert validate_allocation(alloc, profile) == []

    def test_overlap_reported(self):
        profile = Profile.of([UNIFORM, UNIFORM])
        alloc = Allocation.of([Piece.interval(0, "3/4"), Piece.interval("1/2", 1)])
        problems = validate_allocation(alloc, profile)
        assert any("overlap" in p and "[1/2, 3/4]" in p for p in problems)

    def test_free_disposal_violation(self):
        profile = Profile.of([UNIFORM, UNIFORM])
        alloc = Allocation.of([Piece.interval("1/10", "1/2"), Piece.interval("1/2", 1)])
        problems = validate_allocation(alloc, profile)
        assert any("free-disposal" in p and "agent 0" in p for p in problems)

    def test_size_mismatch_raises(self):
        profile = Profile.of([UNIFORM, UNIFORM])
        with pytest.raises(ValueError, match="pieces for"):
            validate_allocation(Allocation.of([Piece.whole()]), profile)

    def test_discarded_overlap_reported(self):
        left = PCV.of(["1/2"], [2, 0])
        alloc = Allocation((Piece.interval(0, "1/2"), Piece.interval("1/2", 1)),
                           Piece.interval("3/4", 1))
        assert validate_allocation(alloc, Profile.of([left, left])) == [
            "overlap between agent 1 and the discarded piece on [3/4, 1]"]

    def test_discarded_overlap_comes_before_free_disposal(self):
        alloc = Allocation((Piece.interval(0, "1/2"), Piece.interval("1/2", 1)),
                           Piece.interval("3/4", 1))
        assert validate_allocation(alloc, Profile.of([UNIFORM, UNIFORM])) == [
            "overlap between agent 1 and the discarded piece on [3/4, 1]",
            "free-disposal violation: agent 0 values discarded [3/4, 1]",
            "free-disposal violation: agent 1 values discarded [3/4, 1]"]

    def test_discard_of_undesired_cake_ok(self):
        left = PCV.of(["1/2"], [2, 0])
        profile = Profile.of([left, left])
        alloc = Allocation.of([Piece.interval(0, "1/4"), Piece.interval("1/4", "1/2")])
        assert validate_allocation(alloc, profile) == []
        assert alloc.discarded == Piece.interval("1/2", 1)


class TestInterval:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Interval(F(-1, 2), F(1, 2))

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            ival("3/4", "1/4")


class _RefuseHugePowers(Fraction):
    """Stands in for Fraction inside cakecut.cake: fails fast instead of
    building 10**100000 if the exponent check ever lets the text through."""

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str) and "100000" in numerator:
            raise AssertionError(f"Fraction({numerator!r}) reached")
        return Fraction(numerator, denominator)


class TestDecimalExponents:
    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        monkeypatch.setattr(cake, "Fraction", _RefuseHugePowers)

    @pytest.mark.parametrize("text", ["1e100000", "1E-100000", "2.5e+0_100000",
                                      f"1e{MAX_DECIMAL_EXPONENT + 1}"])
    def test_frac_rejects(self, text):
        with pytest.raises(ValueError, match="exponent"):
            frac(text)

    def test_valuation_of_rejects(self):
        with pytest.raises(ValueError, match="exponent"):
            PCV.of(["1e-100000"], [1, 2])
        with pytest.raises(ValueError, match="exponent"):
            PCV.of([], ["1e100000"])

    def test_ival_rejects(self):
        with pytest.raises(ValueError, match="exponent"):
            ival(0, "1e-100000")

    def test_exponents_within_bound_exact(self):
        assert frac(f"1e-{MAX_DECIMAL_EXPONENT}") == F(1, 10 ** MAX_DECIMAL_EXPONENT)
        assert frac("2.5e-1") == F(1, 4)
        assert PCV.of(["5e-1"], ["0.5e0", "15e-1"]) == PCV.of(["1/2"], ["1/2", "3/2"])

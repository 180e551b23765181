"""The package's records behave as the frozen dataclasses they replace.

Every value class is a ``cakecut.cake.Record``; ``support.RECORDS`` keeps the
earlier ``@dataclass(frozen=True)`` definitions.  Built from the same field
values, a record and its reference must agree in ``==``, ``hash``, ``repr``
and (for Interval) ordering, and raise the same error, with the same
message, on field assignment and deletion, on a bad constructor call and
from ``_replace`` (``dataclasses.replace``) with an invalid value.
"""

import dataclasses
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from support import RECORDS
from cakecut.cake import ONE, ZERO, Interval, Record
from cakecut.chains import ChainParameters, prop1_chain, thm1_chain, thm2_chain
from cakecut.mechanisms import MECHANISMS, SHARES_MIDDLE
from cakecut.properties import (
    Certificate, PropertyCertificate, SearchConfig, best_response_gain, check_properties,
    ep_cutpoint_best_response)
from cakecut.queries import RWOracle, approximate_valuation, lift_direct_to_rw
from cakecut.sampling import random_profile

# the generators of tests/test_cli.py::TestJsonRoundTrip
CFG = SearchConfig(mass_denominator=2, max_breakpoints=1, offset_rounds=0, max_candidates=8)
CHAINS = {"thm1": (thm1_chain, range(2, 6)), "prop1": (prop1_chain, range(2, 3)),
          "thm2": (thm2_chain, range(3, 6))}
# replacement values tried on every field: most are invalid somewhere
ODD_VALUES = [None, 0, -1, 0.5, "x", (), (Fraction(1, 2),), Fraction(2), Fraction(-1, 3)]


def records(data):
    """One record of each of the 16 classes, and every interval of an
    allocation, from one random profile."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    profile = random_profile(rng, data.draw(st.integers(2, 5)), max_breakpoints=4,
                             denom=data.draw(st.sampled_from([3, 4, 12, 96])))
    name = data.draw(st.sampled_from(sorted(MECHANISMS)))
    mechanism = MECHANISMS[name]
    allocation = mechanism.run(profile)
    halving = MECHANISMS[data.draw(st.sampled_from(sorted(SHARES_MIDDLE)))]
    engine = data.draw(st.sampled_from([best_response_gain, ep_cutpoint_best_response]))
    run, sizes = CHAINS[data.draw(st.sampled_from(sorted(CHAINS)))]
    parameters = ChainParameters.of(data.draw(st.sampled_from(sizes)))
    witness = run(mechanism, parameters)
    k = max(1, *(len(v.breakpoints) for v in profile))
    lifted = lift_direct_to_rw(mechanism, k, "1/2")
    config = SearchConfig(*data.draw(st.tuples(
        st.integers(1, 8), st.integers(0, 3), st.integers(0, 2),
        st.none() | st.integers(1, 64), st.integers(0, 9))))
    intervals = [iv for p in (*allocation.pieces, allocation.discarded)
                 for iv in p.intervals] + [Interval(ZERO, ONE)]
    report = check_properties(mechanism, profile)
    return [data.draw(st.sampled_from(intervals)), allocation.discarded,
            data.draw(st.sampled_from(profile.valuations)), profile, allocation, mechanism,
            report, Certificate(name, profile), engine(halving, profile, 0, CFG),
            PropertyCertificate(name, profile, report), config, parameters,
            witness, approximate_valuation(RWOracle(profile[0]), k, "1/2"),
            lifted.run_profile(profile), lifted], intervals


def reference(record):
    return RECORDS[type(record).__name__](*record._values())


def outcome(fn, *args, **kwargs):
    """What calling `fn` gives: the repr of its result, or the error's
    builtin class (dataclasses' FrozenInstanceError is an AttributeError)
    and message."""
    try:
        return "returned", repr(fn(*args, **kwargs))
    except Exception as exc:
        kind = next(c for c in type(exc).__mro__ if c.__module__ == "builtins")
        return kind, str(exc)


def assert_same_record(x, y):
    """`x` and `y`, records of one class, against their references."""
    rx, ry = reference(x), reference(y)
    cls, ref = type(x), type(rx)
    assert x._fields == tuple(f.name for f in dataclasses.fields(ref))
    assert repr(x) == repr(rx)
    assert hash(x) == hash(rx) == hash(x._values())
    for a, b, ra, rb in ((x, y, rx, ry), (x, x._replace(), rx, dataclasses.replace(rx))):
        assert (a == b, a != b, b == a) == (ra == rb, ra != rb, rb == ra)
    assert x == x._replace() and hash(x) == hash(x._replace())
    assert x.__eq__(rx) is NotImplemented and rx.__eq__(x) is NotImplemented
    values = x._values()
    assert (x == values, x != rx) == (rx == values, rx != x) == (False, True)
    for name in (*x._fields, "extra"):
        assert outcome(setattr, x, name, 0) == outcome(setattr, rx, name, 0)
        assert outcome(delattr, x, name) == outcome(delattr, rx, name)
    assert outcome(setattr, x, "_fields", ()) == outcome(setattr, rx, "_fields", ())
    calls = [((), {}), (values, {}), ((*values, 0), {}), (values[:-1], {}),
             (values, {"bogus": 0}), (values[:1], {x._fields[0]: values[0]}),
             ((), dict(zip(x._fields, values)))]
    for args, kwargs in calls:
        assert outcome(cls, *args, **kwargs) == outcome(ref, *args, **kwargs)
    for name in (*x._fields, "bogus"):
        for value in ODD_VALUES:
            assert (outcome(x._replace, **{name: value})
                    == outcome(dataclasses.replace, rx, **{name: value}))


class TestRecordParity:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_records_match_the_dataclasses(self, data):
        first, intervals = records(data)
        second, _ = records(data)
        assert sorted(RECORDS) == sorted(type(x).__name__ for x in first)
        for x, y in zip(first, second):
            assert isinstance(x, Record) and type(x) is type(y)
            assert_same_record(x, y)
        a, b = data.draw(st.sampled_from(intervals)), data.draw(st.sampled_from(intervals))
        ra, rb = reference(a), reference(b)
        assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)
        assert [repr(iv) for iv in sorted(intervals)] == [
            repr(iv) for iv in sorted(map(reference, intervals))]
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(a, op)(ra) is NotImplemented is getattr(ra, op)(a)
            assert outcome(getattr(a, op), 0) == outcome(getattr(ra, op), 0)

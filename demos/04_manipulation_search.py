"""Hunting for profitable misreports, with self-verifying certificates.

Two engines: a grid search over breakpoint/mass combinations (works on any
mechanism) and the cut-point engine for the recursive-halving family, which
plans the manipulator's position at every recursion node and then realizes
the plan as an actual misreport.  Certificates are lower bounds: every gain
is recomputed by re-running the mechanism on both profiles.
"""

from cakecut import (
    PiecewiseConstantValuation,
    Profile,
    SearchConfig,
    best_response_gain,
    ep_cutpoint_best_response,
    evaluate_misreport,
)
from cakecut.mechanisms import EVEN_PAZ, MODIFIED_EP_EXCHANGE

# half the mass hides in a spike at the front; the flat crowd cuts at 1/2
spike = PiecewiseConstantValuation.of(["1/100", "1/2"], [50, 1, "1/50"])
profile = Profile.of([spike, PiecewiseConstantValuation.uniform()])

truthful = EVEN_PAZ.run(profile)
print(f"truthful recursive halving: agent 0 gets {truthful.pieces[0]} "
      f"worth {spike.value(truthful.pieces[0])}")

grid = best_response_gain(EVEN_PAZ, profile, 0)
print(f"grid engine:      gain {grid.gain} via misreport "
      f"{list(grid.misreport.segments())}")

exact = ep_cutpoint_best_response(EVEN_PAZ, profile, 0)
print(f"cut-point engine: gain {exact.gain} via misreport "
      f"{list(exact.misreport.segments())}")
verified = exact.verify()
print(f"certificate re-verifies: {verified}\n")
if not verified:
    raise SystemExit("the cut-point certificate does not re-verify")

# the reallocation wrapper is manipulable to exactly 1/2
bottom_blind = PiecewiseConstantValuation.of(["1/2"], ["0", "2"])
picky = PiecewiseConstantValuation.of(["1/2", "4/5"], ["1", "0", "5/2"])
wrapped_profile = Profile.of([bottom_blind, picky])
cfg = SearchConfig(mass_denominator=10, max_breakpoints=2,
                   offset_rounds=0, max_candidates=None)
cert = best_response_gain(MODIFIED_EP_EXCHANGE, wrapped_profile, 1, cfg)
print(f"exchange wrapper: agent 1 gains {cert.gain} "
      f"(truthful {cert.truthful_value} -> deviated {cert.deviated_value})")

# scoring one fixed misreport needs no search at all
lie = PiecewiseConstantValuation.from_masses(["49/100"], ["1/2", "1/2"])
fixed = evaluate_misreport(EVEN_PAZ, profile, 0, lie)
print(f"fixed misreport with halving point 49/100: gain {fixed.gain}")

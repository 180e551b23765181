"""Impossibility arguments as executable chains producing verified witnesses.

Each chain feeds a mechanism a short sequence of adversarial profiles and
returns the first exact property violation: for any mechanism satisfying the
chain's preconditions, some check must fire, and the resulting witness
re-verifies independently by re-running the mechanism.
"""

from cakecut import (
    ChainParameters,
    discussion_example,
    ep_worstcase_fixture,
    evaluate_misreport,
    prop1_chain,
    thm1_chain,
    thm2_chain,
)
from cakecut.mechanisms import EQUAL_SPLIT, EVEN_PAZ


def show(witness):
    print(f"  violated {witness.violated} (threshold {witness.epsilon})")
    cert = witness.certificate
    if witness.violated == "strategyproofness":
        print(f"  agent {cert.agent} gains {cert.gain} "
              f"({cert.truthful_value} -> {cert.deviated_value})")
    verified = witness.verify()
    print(f"  witness re-verifies: {verified}\n")
    if not verified:
        raise SystemExit(f"the {witness.chain} witness does not re-verify")


print("chain vs the non-wasteful equal splitter (n=2, exact targets):")
show(thm1_chain(EQUAL_SPLIT, ChainParameters.of(2)))

print("two-hungry-agents chain vs recursive halving (eps1=1/5):")
show(prop1_chain(EVEN_PAZ, ChainParameters.of(2, "1/5", 0)))

print("contiguous-mechanism chain vs recursive halving (n=3):")
show(thm2_chain(EVEN_PAZ, ChainParameters.of(3)))

print("the reallocation-stage example, reproduced exactly:")
(_, deviated), witness = discussion_example()
show(witness)

print("near-worst-case manipulation of recursive halving (n=2, gap=1/50):")
profile, agent, lie, bound = ep_worstcase_fixture(2, "1/50")
cert = evaluate_misreport(EVEN_PAZ, profile, agent, lie)
print(f"  guaranteed lower bound {bound}; realized gain {cert.gain}")
verified = cert.verify(EVEN_PAZ)
print(f"  certificate re-verifies: {verified}")
if not verified:
    raise SystemExit("the near-worst-case certificate does not re-verify")

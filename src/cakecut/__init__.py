"""Exact cake cutting: mechanisms, fairness checks, and counterexample chains.

Everything is computed over exact rationals: allocations, property reports,
manipulation-gain certificates, and the violation witnesses produced by the
counterexample chains all re-verify with zero tolerance.

The names below are exported lazily (PEP 562): ``import cakecut`` loads no
submodule, and ``cakecut.report_for`` imports ``cakecut.properties`` on
first use, so a CLI command pays only for the modules it runs.
"""

from importlib import import_module

_EXPORTS = {name: module for module, names in {
    "cake": "Allocation InfeasibleCutError Interval Piece PiecewiseConstantValuation"
            " Profile frac ival normalized validate_allocation",
    "chains": "ChainError ChainParameters InfeasibleParameters ViolationWitness"
              " discussion_example ep_worstcase_fixture prop1_chain thm1_chain thm2_chain",
    "mechanisms": "MECHANISMS Mechanism equal_split_nonwasteful even_paz get_mechanism"
                  " modified_even_paz with_zero_piece_exchange",
    "properties": "GainCertificate PropertyCertificate PropertyReport SearchConfig"
                  " best_response_gain check_properties ep_cutpoint_best_response"
                  " evaluate_misreport report_for",
    "queries": "LearnedValuation LiftedMechanism RWOracle approximate_valuation"
               " lift_direct_to_rw query_budget",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _EXPORTS.values():  # a defining submodule, as in cakecut.chains.CHAINS
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""The package's public surface."""

import types

import pytest

import qrelay
from qrelay.strategy_io import strategy_document


def test_all_lists_every_public_name_once_in_order():
    names = qrelay.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)
    for name in names:
        getattr(qrelay, name)
    public = {name for name, value in vars(qrelay).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)


E = qrelay.symmetric_ensemble(3, 0.6)
S = qrelay.optimal_strategy_analytic(3, 0.6)
A = qrelay.Assignment({0: 0, 1: 1, 2: 2})
ELEMENTS = S.pom.elements  # a measurement's elements as a bare tuple, not a Pom
SAVED = "rejected.strategy.json"  # relative: each case runs in its own empty directory


@pytest.mark.parametrize("call,message", [
    (lambda: qrelay.error_probability(E, ELEMENTS, A), "pom is a tuple, not a Pom"),
    (lambda: qrelay.error_probability((3, 0.6), S.pom, A), "ensemble is a tuple"),
    (lambda: qrelay.greedy_assignment(E, ELEMENTS), "pom is a tuple, not a Pom"),
    (lambda: qrelay.greedy_assignment((3, 0.6), S.pom), "ensemble is a tuple"),
    (lambda: qrelay.validate_pom(ELEMENTS), "pom is a tuple, not a Pom"),
    (lambda: qrelay.identity_sum_residual(ELEMENTS), "pom is a tuple, not a Pom"),
    (lambda: qrelay.optimal_retransmission(E, ELEMENTS), "pom is a tuple, not a Pom"),
    (lambda: qrelay.optimal_retransmission((3, 0.6), S.pom), "ensemble is a tuple"),
    (lambda: qrelay.fidelity_of_strategy(E, S.pom), "strategy is a Pom, not a Strategy"),
    (lambda: qrelay.fidelity_of_strategy((3, 0.6), S), "ensemble is a tuple"),
    (lambda: qrelay.simulate_fidelity(E, S.pom, 100), "strategy is a Pom, not a Strategy"),
    (lambda: qrelay.simulate_fidelity((3, 0.6), S, 100), "ensemble is a tuple"),
    (lambda: qrelay.simulate_error(E, ELEMENTS, A, 100), "pom is a tuple, not a Pom"),
    (lambda: qrelay.simulate_error((3, 0.6), S.pom, A, 100), "ensemble is a tuple"),
    (lambda: qrelay.simulate_strategy(E, S.pom, A, 100), "strategy is a Pom, not a Strategy"),
    (lambda: qrelay.square_root_measurement(None), "ensemble is a NoneType, not a SymmetricEnsemble"),
    (lambda: qrelay.optimize_fidelity(None), "ensemble is a NoneType, not a SymmetricEnsemble"),
    (lambda: qrelay.optimize_error(None), "ensemble is a NoneType, not a SymmetricEnsemble"),
    (lambda: qrelay.save_strategy(SAVED, None, S, "x"), "ensemble is a NoneType, not a SymmetricEnsemble"),
    (lambda: qrelay.save_strategy(SAVED, E, S.pom, "x"), "strategy is a Pom, not a Strategy"),
    (lambda: strategy_document((3, 0.6), S, "x"), "ensemble is a tuple, not a SymmetricEnsemble"),
    (lambda: strategy_document(E, None, "x"), "strategy is a NoneType, not a Strategy"),
], ids=["error_probability-pom", "error_probability-ensemble", "greedy_assignment-pom",
        "greedy_assignment-ensemble", "validate_pom", "identity_sum_residual",
        "optimal_retransmission-pom", "optimal_retransmission-ensemble",
        "fidelity_of_strategy-strategy", "fidelity_of_strategy-ensemble",
        "simulate_fidelity-strategy", "simulate_fidelity-ensemble", "simulate_error-pom",
        "simulate_error-ensemble", "simulate_strategy", "square_root_measurement",
        "optimize_fidelity", "optimize_error", "save_strategy-ensemble", "save_strategy-strategy",
        "strategy_document-ensemble", "strategy_document-strategy"])
def test_entry_points_reject_ill_typed_records(call, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(qrelay.DomainError, match=message):
        call()
    assert list(tmp_path.iterdir()) == []  # a rejected record writes no file

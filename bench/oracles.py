"""Independent oracles and output checks for the qrelay benchmark.

Nothing in this module calls qrelay. Closed forms come from the formulas
themselves; Born probabilities, fidelities, best retransmissions and POM
soundness come from numpy 2x2 matrices built out of the raw numbers of a
strategy (the fields of qrelay's objects, or the rows of a strategy document).

Every check returns a list of problems, each starting with the name of the
check that found it ("shortfall: ...", "pom: ..."), so that the self-test can
confirm that each named check is able to fail.
"""

from __future__ import annotations

import json
import math

import numpy as np

PSD_TOL = 1e-12      # smallest eigenvalue an element may have
SUM_TOL = 1e-9       # entrywise slack of the element sum against the identity
VALUE_TOL = 1e-10    # agreement of computed values with the oracles
OVERSHOOT_TOL = 1e-6
SHORTFALL_TOL = 1e-4
SIM_SIGMAS = 5.0
RENORM_TOL = 1e-15   # amplitude drift allowed when loading renormalizes a state


def f_max(m: int, theta: float) -> float:
    """Maximum fidelity: 1 - sin^2/4, or (1 + sqrt(cos^2 + sin^4))/2 for m = 2."""
    s, c = math.sin(theta), math.cos(theta)
    if m == 2:
        return 0.5 * (1.0 + math.sqrt(c * c + s ** 4))
    return 1.0 - 0.25 * s * s


def p_e_min(m: int, theta: float) -> float:
    """Minimum identification error: 1 - (1 + sin theta)/m."""
    return 1.0 - (1.0 + math.sin(theta)) / m


def signals(m: int, theta: float) -> np.ndarray:
    """Signal amplitudes cos(theta/2)|+> + exp(2 pi i j/m) sin(theta/2)|->, one per row."""
    phases = np.exp(2j * np.pi * np.arange(m) / m)
    return np.stack([np.full(m, math.cos(0.5 * theta), dtype=complex),
                     phases * math.sin(0.5 * theta)], axis=1)


def pom_matrices(pom) -> np.ndarray:
    """(n, 2, 2) complex matrices from the a, b, d fields of each element."""
    return np.array([[[el.a, el.b], [complex(el.b).conjugate(), el.d]]
                     for el in pom.elements], dtype=complex)


def state_vectors(states) -> np.ndarray:
    return np.array([[q.amp_plus, q.amp_minus] for q in states], dtype=complex)


def document_arrays(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(elements, retransmit states) read straight from a document's JSON."""
    doc = json.loads(text)
    rows = np.array(doc["pom"], dtype=float)
    b = rows[:, 1] + 1j * rows[:, 2]
    elements = np.empty((len(rows), 2, 2), dtype=complex)
    elements[:, 0, 0] = rows[:, 0]
    elements[:, 0, 1] = b
    elements[:, 1, 0] = b.conj()
    elements[:, 1, 1] = rows[:, 3]
    amps = np.array(doc["retransmit"], dtype=float)
    states = np.stack([amps[:, 0] + 1j * amps[:, 1], amps[:, 2] + 1j * amps[:, 3]], axis=1)
    return elements, states


def born(elements: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """P[j, k] = <psi_j|E_k|psi_j>."""
    return np.einsum("ja,kab,jb->jk", psi.conj(), elements, psi).real


def fidelity(elements: np.ndarray, states: np.ndarray, psi: np.ndarray) -> float:
    """(1/m) sum_jk P(k|j) |<psi_j|phi_k>|^2, with phi_k normalized here."""
    overlap = np.abs(psi.conj() @ states.T) ** 2 / (np.abs(states) ** 2).sum(axis=1)
    return float((born(elements, psi) * overlap).sum() / len(psi))


def best_fidelity(elements: np.ndarray, psi: np.ndarray) -> float:
    """Sum over outcomes of the top eigenvalue of (1/m) sum_j P(k|j) |psi_j><psi_j|."""
    proj = psi[:, :, None] * psi.conj()[:, None, :]
    score = np.einsum("jk,jab->kab", born(elements, psi), proj) / len(psi)
    return float(np.linalg.eigvalsh(score)[:, -1].sum())


def pom_problems(elements: np.ndarray, tag: str = "pom") -> list[str]:
    """Positivity by eigvalsh and completeness by the element sum."""
    if not np.isfinite(elements).all():
        return [f"{tag}: non-finite entry"]
    problems = []
    low = float(np.linalg.eigvalsh(elements).min())
    if not low >= -PSD_TOL:
        problems.append(f"{tag}: minimum eigenvalue {low:.3e}")
    resid = float(np.abs(elements.sum(axis=0) - np.eye(2)).max())
    if not resid <= SUM_TOL:
        problems.append(f"{tag}: element sum misses the identity by {resid:.3e}")
    return problems


def _close(tag: str, got: float, want: float, tol: float = VALUE_TOL) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{tag}: {got!r} against {want!r} (tolerance {tol:g})"]
    return []


def _greedy_problems(probs: np.ndarray, read_as: list[int]) -> list[str]:
    chosen = probs[read_as, np.arange(probs.shape[1])]
    worst = float((probs.max(axis=0) - chosen).max())
    if not worst <= PSD_TOL:
        return [f"assignment: an outcome is read as a signal {worst:.3e} below the best"]
    return []


def error_with(probs: np.ndarray, read_as: list[int]) -> float:
    """1 - (1/m) sum_k P(read_as[k] | k) for the assignment read_as."""
    return 1.0 - float(probs[read_as, np.arange(probs.shape[1])].sum()) / probs.shape[0]


def read_assignment(pom, assignment) -> list[int]:
    return [assignment.outcome_to_signal[label] for label in pom.labels]


def check_search(objective: str, m: int, theta: float, result) -> list[str]:
    """Soundness of the returned POM, its value against the oracle, and the bracket
    overshoot <= 1e-6, shortfall <= 1e-4 around the closed form."""
    psi = signals(m, theta)
    if objective == "fidelity":
        strategy, achieved, _ = result
        elements = pom_matrices(strategy.pom)
        problems = pom_problems(elements)
        if problems:
            return problems
        problems += _close("value", achieved,
                           fidelity(elements, state_vectors(strategy.retransmit), psi))
        problems += _close("retransmission", achieved, best_fidelity(elements, psi))
        overshoot = achieved - f_max(m, theta)
    else:
        pom, assignment, achieved, _ = result
        elements = pom_matrices(pom)
        problems = pom_problems(elements)
        if problems:
            return problems
        probs = born(elements, psi)
        read_as = read_assignment(pom, assignment)
        problems += _greedy_problems(probs, read_as)
        problems += _close("value", achieved, error_with(probs, read_as))
        overshoot = p_e_min(m, theta) - achieved
    if not overshoot <= OVERSHOOT_TOL:
        problems.append(f"overshoot: {objective} search beats the closed form by {overshoot:.3e}")
    if not -overshoot <= SHORTFALL_TOL:
        problems.append(f"shortfall: {objective} search misses the closed form by {-overshoot:.3e}")
    return problems


def parse_report(text: str) -> dict[str, str]:
    """Every "key = value" field of the simulate report; fields are split by two spaces."""
    fields = {}
    for line in text.splitlines():
        for part in line.split("  "):
            key, sep, value = part.partition(" = ")
            if sep:
                fields[f"{line.split(' = ')[0]}.{key.strip()}"] = value.strip()
    return fields


def sim_oracle(document_text: str, m: int, theta: float) -> tuple[float, float]:
    """Exact (fidelity, greedy error) of a stored strategy on the (m, theta) signals."""
    elements, states = document_arrays(document_text)
    psi = signals(m, theta)
    probs = born(elements, psi)
    return fidelity(elements, states, psi), error_with(probs, list(probs.argmax(axis=0)))


def check_simulation(text: str, m: int, theta: float, trials: int, seed: int,
                     oracle: tuple[float, float], orthogonal: bool) -> list[str]:
    """The report echoes its inputs, prints exact values that match the oracle and
    estimates within 5 binomial standard errors of it; the orthogonal pair never errs."""
    fields = parse_report(text)
    try:
        echoed = (int(fields["m.m"]), float(fields["theta.theta"]),
                  int(fields["trials.trials"]), int(fields["seed.seed"]))
        values = {name: (float(fields[f"{name}_estimate.{name}_estimate"]),
                         float(fields[f"{name}_estimate.exact"]))
                  for name in ("fidelity", "error")}
    except (KeyError, ValueError) as exc:
        return [f"report: missing or malformed field {exc}"]
    problems = []
    if echoed != (m, theta, trials, seed):
        problems.append(f"report: echoes {echoed}, ran {(m, theta, trials, seed)}")
    for (name, (estimate, exact)), want in zip(values.items(), oracle):
        problems += _close(f"exact {name}", exact, want)
        allowed = SIM_SIGMAS * math.sqrt(max(want * (1.0 - want), 0.0) / trials) + 1e-12
        if not abs(estimate - want) <= allowed:
            problems.append(f"estimate: {name} {estimate!r} is {abs(estimate - want):.3e} "
                            f"from {want!r}, more than {allowed:.3e}")
    if orthogonal and values["error"][0] != 0.0:
        problems.append(f"orthogonal: the orthogonal pair erred at rate {values['error'][0]!r}")
    return problems


def check_repeat(first: str, second: str) -> list[str]:
    if first != second:
        return ["repeat: the same file, trials and seed printed different reports"]
    return []


def check_closed_form_point(point: dict) -> list[str]:
    """One grid point of the closed_form pass against the oracles and its document."""
    m, theta = point["m"], point["theta"]
    psi = signals(m, theta)
    got = state_vectors(point["ensemble"].states)
    problems = []
    if not np.abs(np.abs((psi.conj() * got).sum(axis=1)) ** 2 - 1.0).max() <= PSD_TOL:
        problems.append("ensemble: signal states differ from the formula")
    strategy = point["strategy"]
    elements = pom_matrices(strategy.pom)
    sound = pom_problems(elements)
    problems += sound
    if bool(sound) != bool(point["violations"]):
        problems.append(f"validate: validate_pom says {point['violations']!r}, oracle says {sound!r}")
    problems += _close("fidelity", point["fidelity"],
                       fidelity(elements, state_vectors(strategy.retransmit), psi))
    problems += _close("fidelity", point["fidelity"], f_max(m, theta))
    srm = pom_matrices(point["srm"])
    frame = np.einsum("ja,jb->ab", psi, psi.conj())
    if np.linalg.eigvalsh(frame).min() > 1e-10:
        problems += pom_problems(srm, "srm")
    report = point["retransmission"]
    problems += _close("retransmission", report.fidelity, best_fidelity(srm, psi))
    problems += _close("retransmission", report.fidelity, f_max(m, theta))
    problems += _close("retransmission", report.fidelity,
                       fidelity(srm, state_vectors(report.states), psi))
    probs = born(srm, psi)
    read_as = read_assignment(point["srm"], point["assignment"])
    problems += _greedy_problems(probs, read_as)
    problems += _close("error", point["error"], error_with(probs, read_as))
    problems += _close("error", point["error"], p_e_min(m, theta))
    return problems + _roundtrip_problems(point)


def _roundtrip_problems(point: dict) -> list[str]:
    """The document holds every double of the strategy exactly, and loading it
    gives back the same ensemble and POM doubles. Loading renormalizes the
    retransmission states, which may move their amplitudes by a few ulp."""
    strategy = point["strategy"]
    want_pom = [[el.a, el.b.real, el.b.imag, el.d] for el in strategy.pom.elements]
    want_states = [[q.amp_plus.real, q.amp_plus.imag, q.amp_minus.real, q.amp_minus.imag]
                   for q in strategy.retransmit]
    try:
        with open(point["path"]) as fh:
            doc = json.load(fh)
        stored = (doc["ensemble"]["m"], doc["ensemble"]["theta"], doc["pom"], doc["retransmit"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"document: unreadable strategy document ({exc})"]
    if stored != (point["m"], point["theta"], want_pom, want_states):
        return ["document: stored numbers differ from the saved strategy"]
    ensemble, loaded, _ = point["loaded"]
    got_pom = [[el.a, el.b.real, el.b.imag, el.d] for el in loaded.pom.elements]
    got_states = [[q.amp_plus.real, q.amp_plus.imag, q.amp_minus.real, q.amp_minus.imag]
                  for q in loaded.retransmit]
    if (ensemble.m, ensemble.theta, got_pom) != stored[:3]:
        return ["roundtrip: loaded ensemble or POM differs from the saved one"]
    drift = float(np.abs(np.array(got_states) - np.array(want_states)).max())
    if not drift <= RENORM_TOL:
        return [f"roundtrip: loaded retransmission states moved by {drift:.3e}"]
    return []

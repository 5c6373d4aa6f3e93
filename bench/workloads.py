"""The benchmark's three workloads.

Each workload has the same four parts:

- ``prepare(seed, workdir)`` builds the run's fixed operation list from the
  seed (and writes any strategy files into ``workdir``). The first entry of the
  list as built is the untimed warm-up operation; the runner shuffles the
  order of the timed ones by the seed.
- ``execute(op)`` is the timed call into qrelay. It raises when the operation
  fails.
- ``check_round(ops, results)`` compares one round's outputs with the
  independent oracles of ``oracles.py``; a result of None marks a failed
  operation and is skipped.
- ``selftest(workdir)`` feeds the workload's checks one correct input, which
  must pass, and deliberately wrong ones, each of which must be rejected by
  the named check. It returns the checks that misbehaved.

qrelay is always reached through attribute lookups on the package at call time,
so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from pathlib import Path

import qrelay
import qrelay.cli

import oracles

PI = math.pi


def _expect(found: list[str], check: str | None, case: str) -> list[str]:
    """Self-test verdict: `check` must be among the problems found (None: none may be)."""
    if check is None:
        return [f"selftest: correct {case} was rejected: {found}"] if found else []
    if not any(p.startswith(check + ":") for p in found):
        return [f"selftest: check '{check}' accepted {case}: {found}"]
    return []


class Search:
    """Default-config optimizer searches: criterion-5 fidelity points plus a
    minority of error searches. The seed only orders the list: every point
    is known to pass the bracket, and a search's cost depends on its path."""

    OPS = (("fidelity", 2, PI / 4),
           ("fidelity", 3, 0.0),
           ("fidelity", 4, 3 * PI / 8),
           ("fidelity", 5, PI / 8),
           ("fidelity", 8, PI / 2),
           ("error", 3, PI / 4),
           ("error", 5, PI / 2))

    def prepare(self, seed: int, workdir: Path) -> list:
        return list(self.OPS)

    def execute(self, op):
        objective, m, theta = op
        e = qrelay.symmetric_ensemble(m, theta)
        if objective == "fidelity":
            return qrelay.optimize_fidelity(e)
        return qrelay.optimize_error(e)

    def check_round(self, ops, results) -> list[str]:
        problems = []
        for op, result in zip(ops, results):
            if result is not None:
                problems += [f"search {op}: {p}" for p in oracles.check_search(*op, result)]
        return problems

    def selftest(self, workdir: Path) -> list[str]:
        m, theta = 3, PI / 4
        e = qrelay.symmetric_ensemble(m, theta)
        best = qrelay.optimal_strategy_analytic(m, theta)
        value = oracles.f_max(m, theta)
        bent = _perturbed_pom(best.pom)
        z_basis = qrelay.Pom(elements=(qrelay.Hermitian2(1.0, 0.0, 0j), qrelay.Hermitian2(0.0, 1.0, 0j)))
        z_report = qrelay.optimal_retransmission(e, z_basis)
        z_strategy = qrelay.Strategy(pom=z_basis, retransmit=z_report.states)
        srm = qrelay.square_root_measurement(e)
        greedy = qrelay.greedy_assignment(e, srm)
        swapped = qrelay.Assignment({0: 1, 1: 0, 2: 2})
        err = oracles.p_e_min(m, theta)
        cases = (
            ("fidelity", (best, value, None), None, "the closed-form optimum"),
            ("fidelity", (dataclasses.replace(best, pom=bent), value, None), "pom",
             "a perturbed POM element"),
            ("fidelity", (best, value + 1e-9, None), "value", "a shifted value"),
            ("fidelity", (z_strategy, z_report.fidelity, None), "shortfall",
             "a z-basis measurement"),
            ("error", (srm, greedy, err, None), None, "the square-root measurement"),
            ("error", (srm, swapped, oracles.error_with(
                oracles.born(oracles.pom_matrices(srm), oracles.signals(m, theta)), [1, 0, 2]),
                None), "assignment", "a non-greedy assignment"),
            ("error", (srm, greedy, err - 2e-6, None), "overshoot", "an error below the minimum"),
        )
        found = []
        for objective, result, check, case in cases:
            found += _expect(oracles.check_search(objective, m, theta, result), check, case)
        return found


def _perturbed_pom(pom):
    el = pom.elements[0]
    return dataclasses.replace(pom, elements=(dataclasses.replace(el, a=el.a * 1.001),)
                               + pom.elements[1:])


@dataclasses.dataclass(frozen=True)
class SimCase:
    name: str
    path: Path
    m: int
    theta: float
    trials: int
    seed: int
    oracle: tuple[float, float]

    @property
    def argv(self) -> list[str]:
        return ["simulate", "--strategy_file", str(self.path),
                "--trials", str(self.trials), "--seed", str(self.seed)]


class Simulate:
    """`qrelay simulate` through qrelay.cli.main on strategy files written at set-up.

    Outcome counts 2 to 8; trial counts on both sides of the simulator's 2**20
    chunk; the equatorial triple runs twice with the same seed. The seed draws
    the colatitudes, the phase offsets and the simulation seeds; none of them
    changes the cost of a run."""

    # name, m, theta (None: drawn), outputs (None: square-root measurement), trials
    CASES = (("orthogonal_pair", 2, PI / 2, 2, 400_000),
             ("pair", 2, None, 2, 1_500_000),
             ("equator_triple", 3, PI / 2, 3, 1_000_000),
             ("five_on_eight", 5, None, 8, 2_500_000),
             ("eight_square_root", 8, None, None, 700_000),
             ("four_on_six", 4, None, 6, 1_200_000))

    def prepare(self, seed: int, workdir: Path) -> list[SimCase]:
        rng = random.Random(seed)
        ops = []
        for name, m, theta, outputs, trials in self.CASES:
            theta = rng.uniform(0.2, 1.4) if theta is None else theta
            e = qrelay.symmetric_ensemble(m, theta)
            if outputs is None:
                srm = qrelay.square_root_measurement(e)
                strategy = qrelay.Strategy(srm, qrelay.optimal_retransmission(e, srm).states)
                generator, params = "square_root", {"m": m, "theta": theta}
            else:
                alpha = rng.uniform(0.0, 2 * PI / outputs) if outputs != m else 0.0
                strategy = qrelay.optimal_strategy_analytic(m, theta, outputs, alpha)
                generator = "analytic"
                params = {"m": m, "theta": theta, "n_outputs": outputs, "alpha": alpha}
            path = workdir / f"{name}.strategy.json"
            qrelay.save_strategy(path, e, strategy, generator, params)
            oracle = oracles.sim_oracle(path.read_text(), m, theta)
            ops.append(SimCase(name, path, m, theta, trials, rng.randrange(2 ** 32), oracle))
        twin = next(op for op in ops if op.name == "equator_triple")
        ops.append(dataclasses.replace(twin, name="equator_triple_again"))
        return ops

    def execute(self, op: SimCase) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qrelay.cli.main(op.argv)
        if code != 0:
            raise RuntimeError(f"qrelay {' '.join(op.argv)} exited with {code}")
        return out.getvalue()

    def check_round(self, ops, results) -> list[str]:
        problems = []
        texts = {}
        for op, text in zip(ops, results):
            if text is None:
                continue
            texts[op.name] = text
            problems += [f"simulate {op.name}: {p}" for p in self._check(op, text)]
        if "equator_triple" in texts and "equator_triple_again" in texts:
            problems += oracles.check_repeat(texts["equator_triple"], texts["equator_triple_again"])
        return problems

    @staticmethod
    def _check(op: SimCase, text: str) -> list[str]:
        return oracles.check_simulation(text, op.m, op.theta, op.trials, op.seed, op.oracle,
                                        orthogonal=op.name == "orthogonal_pair")

    def selftest(self, workdir: Path) -> list[str]:
        ops = {op.name: dataclasses.replace(op, trials=20_000)
               for op in self.prepare(0, workdir)}
        pair = ops["orthogonal_pair"]
        triple = ops["equator_triple"]
        text = self.execute(triple)
        fid = triple.oracle[0]
        shift = 6 * math.sqrt(fid * (1 - fid) / triple.trials)
        fields = oracles.parse_report(text)
        estimate = fields["fidelity_estimate.fidelity_estimate"]
        exact = fields["fidelity_estimate.exact"]
        lines = text.splitlines(keepends=True)
        found = _expect(self._check(triple, text), None, "a real report")
        found += _expect(self._check(triple, text.replace(
            f"fidelity_estimate = {estimate}", f"fidelity_estimate = {fid + shift!r}")),
            "estimate", "an estimate shifted by 6 standard errors")
        found += _expect(self._check(triple, text.replace(
            f"exact = {exact}", f"exact = {float(exact) + 1e-9!r}")), "exact fidelity",
            "a shifted exact value")
        found += _expect(self._check(triple, "".join(lines[:-3])), "report", "a truncated report")
        pair_text = self.execute(pair)
        found += _expect(self._check(pair, pair_text), None, "the orthogonal pair")
        found += _expect(self._check(pair, pair_text.replace(
            "error_estimate = 0 ", "error_estimate = 2.5e-05 ")), "orthogonal",
            "an orthogonal pair that errs")
        found += _expect(oracles.check_repeat(text, text), None, "a repeated report")
        found += _expect(oracles.check_repeat(text, text.replace(f"{triple.seed}", "0")),
                         "repeat", "a repeat that differs")
        return found


class ClosedForm:
    """One operation is one pass over an (m, theta, n_outputs, alpha) grid of 40
    points through the scalar 2x2 path, with a save/load round trip per point.
    The seed draws two interior colatitudes and the phase offsets; the grid's
    shape, and so its cost, is fixed."""

    MS = (2, 3, 4, 5, 8)

    def prepare(self, seed: int, workdir: Path) -> list:
        rng = random.Random(seed)
        thetas = (0.0, rng.uniform(0.05, 0.75), rng.uniform(0.8, 1.5), PI / 2)
        grid = []
        for m in self.MS:
            for theta in thetas:
                for outputs, alpha in ((m, 0.0), (m + 3, rng.uniform(0.0, 2 * PI))):
                    grid.append((m, theta, outputs, alpha,
                                 workdir / f"point{len(grid):02d}.strategy.json"))
        return [tuple(grid)]

    def execute(self, grid) -> list[dict]:
        return [_closed_form_point(*point) for point in grid]

    def check_round(self, ops, results) -> list[str]:
        problems = []
        for points in results:
            for point in points or ():
                problems += [f"closed_form m={point['m']} theta={point['theta']!r}: {p}"
                             for p in oracles.check_closed_form_point(point)]
        return problems

    def selftest(self, workdir: Path) -> list[str]:
        path = workdir / "selftest.strategy.json"
        point = _closed_form_point(5, 0.9, 7, 0.3, path)
        found = _expect(oracles.check_closed_form_point(point), None, "a real point")
        wrong = (
            ({"fidelity": point["fidelity"] + 1e-9}, "fidelity", "a shifted fidelity"),
            ({"error": point["error"] - 1e-9}, "error", "a shifted error"),
            ({"strategy": dataclasses.replace(
                point["strategy"], pom=_perturbed_pom(point["strategy"].pom))},
             "pom", "a perturbed POM element"),
            ({"violations": ["made up"]}, "validate", "a false validation verdict"),
        )
        for change, check, case in wrong:
            found += _expect(oracles.check_closed_form_point({**point, **change}), check, case)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        found += _expect(oracles.check_closed_form_point(point), "document", "a truncated document")
        doc = json.loads(text)
        doc["pom"][0][0] = math.nextafter(doc["pom"][0][0], 2.0)
        path.write_text(json.dumps(doc))
        found += _expect(oracles.check_closed_form_point(point), "document",
                         "a document with one altered number")
        return found


def _closed_form_point(m: int, theta: float, outputs: int, alpha: float, path: Path) -> dict:
    e = qrelay.symmetric_ensemble(m, theta)
    strategy = qrelay.optimal_strategy_analytic(m, theta, outputs, alpha)
    srm = qrelay.square_root_measurement(e)
    assignment = qrelay.greedy_assignment(e, srm)
    point = {
        "m": m, "theta": theta, "ensemble": e, "strategy": strategy, "path": path,
        "violations": qrelay.validate_pom(strategy.pom),
        "fidelity": qrelay.fidelity_of_strategy(e, strategy),
        "srm": srm,
        "retransmission": qrelay.optimal_retransmission(e, srm),
        "assignment": assignment,
        "error": qrelay.error_probability(e, srm, assignment),
    }
    qrelay.save_strategy(path, e, strategy, "analytic",
                         {"m": m, "theta": theta, "n_outputs": len(strategy.pom),
                          "alpha": alpha})
    point["loaded"] = qrelay.load_strategy(path)
    return point


WORKLOADS = {"search": Search(), "simulate": Simulate(), "closed_form": ClosedForm()}

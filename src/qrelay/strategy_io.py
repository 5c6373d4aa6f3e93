"""Strategy documents: a JSON schema tying an ensemble to a strategy.

A document records the ensemble parameters, the measurement elements as real
quadruples [a, re(b), im(b), d], the retransmission amplitudes as quadruples
[re+, im+, re-, im-], and provenance (who generated it, with what
parameters). Floats are rendered by repr, which parses back to the same
double and sign of zero, so saving a loaded document reproduces it byte for
byte; loading re-validates everything before any simulation may consume it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any

from .ensembles import SymmetricEnsemble, symmetric_ensemble
from .errors import DomainError, ValidationError
from .fidelity import Strategy
from .measurements import Pom, validate_pom
from .qubit import Hermitian2, PureQubit

FORMAT_VERSION = 1


def _render(value: Any, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"cannot serialize non-finite float {value!r}")
        return repr(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
            return "[" + ", ".join(_render(x, 0) for x in items) + "]"
        inner = ",\n".join(pad + "  " + _render(x, indent + 2) for x in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 2)}'
            for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise DomainError(f"cannot serialize {type(value).__name__} values")


def strategy_document(e: SymmetricEnsemble, s: Strategy, generator: str,
                      parameters: dict[str, Any] | None = None) -> dict[str, Any]:
    """Plain-data document describing the strategy; ready to render."""
    return {
        "format": "strategy",
        "version": FORMAT_VERSION,
        "generator": generator,
        "parameters": dict(parameters or {}),
        "ensemble": {"m": e.m, "theta": float(e.theta)},
        "pom": [[el.a, el.b.real, el.b.imag, el.d] for el in s.pom.elements],
        "retransmit": [[q.amp_plus.real, q.amp_plus.imag,
                        q.amp_minus.real, q.amp_minus.imag] for q in s.retransmit],
    }


def render_document(doc: dict[str, Any]) -> str:
    return _render(doc, 0) + "\n"


def save_strategy(path: str | Path, e: SymmetricEnsemble, s: Strategy,
                  generator: str, parameters: dict[str, Any] | None = None) -> None:
    Path(path).write_text(render_document(strategy_document(e, s, generator, parameters)))


def _quadruples(doc: dict[str, Any], key: str) -> list[list[float]]:
    rows = doc.get(key)
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f'"{key}" must be a non-empty list')
    out = []
    for pos, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != 4
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)):
            raise ValidationError(f'"{key}"[{pos}] must be a list of 4 numbers')
        if not all(abs(x) <= sys.float_info.max for x in row):  # exact for integers; NaN fails
            raise ValidationError(f'"{key}"[{pos}] contains a number that is not a finite double')
        out.append([float(x) for x in row])
    return out


def parse_strategy_document(doc: Any) -> tuple[SymmetricEnsemble, Strategy, dict[str, Any]]:
    """Validate a parsed document and rebuild the ensemble and strategy.

    Raises ValidationError naming the first violation found.
    """
    if not isinstance(doc, dict):
        raise ValidationError("document root must be an object")
    for key in ("format", "version", "generator", "parameters", "ensemble", "pom", "retransmit"):
        if key not in doc:
            raise ValidationError(f'missing required key "{key}"')
    if doc["format"] != "strategy":
        raise ValidationError(f'unknown format {doc["format"]!r}')
    version = doc["version"]
    if not isinstance(version, int) or isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValidationError(f'unsupported version {version!r}')
    if not isinstance(doc["generator"], str):
        raise ValidationError('"generator" must be a string')
    if not isinstance(doc["parameters"], dict):
        raise ValidationError('"parameters" must be an object')
    ens = doc["ensemble"]
    if not isinstance(ens, dict) or "m" not in ens or "theta" not in ens:
        raise ValidationError('"ensemble" must be an object with "m" and "theta"')
    m, theta = ens["m"], ens["theta"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError('"ensemble.m" must be an integer')
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise ValidationError('"ensemble.theta" must be a number')
    try:
        ensemble = symmetric_ensemble(m, float(theta))
    except (DomainError, OverflowError) as exc:
        raise ValidationError(f"ensemble: {exc}") from exc
    pom_rows = _quadruples(doc, "pom")
    state_rows = _quadruples(doc, "retransmit")
    if len(state_rows) != len(pom_rows):
        raise ValidationError(f"{len(state_rows)} retransmission states for {len(pom_rows)} elements")
    elements = tuple(Hermitian2(a=row[0], d=row[3], b=complex(row[1], row[2]))
                     for row in pom_rows)
    pom = Pom(elements=elements)
    violations = validate_pom(pom)
    if violations:
        raise ValidationError(f"pom: {violations[0]}")
    states = []
    for pos, row in enumerate(state_rows):
        try:
            states.append(PureQubit(complex(row[0], row[1]), complex(row[2], row[3])))
        except DomainError as exc:
            raise ValidationError(f'"retransmit"[{pos}]: {exc}') from exc
    strategy = Strategy(pom=pom, retransmit=tuple(states))
    meta = {"generator": doc["generator"], "parameters": doc["parameters"],
            "version": doc["version"]}
    return ensemble, strategy, meta


def load_strategy(path: str | Path) -> tuple[SymmetricEnsemble, Strategy, dict[str, Any]]:
    """Read and validate a strategy document from disk."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    return parse_strategy_document(doc)

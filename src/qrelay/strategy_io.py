"""Strategy documents: a JSON schema tying an ensemble to a strategy.

A document records the ensemble parameters, the measurement elements as real
quadruples [a, re(b), im(b), d], the retransmission amplitudes as quadruples
[re+, im+, re-, im-], and provenance (who generated it, with what
parameters). json writes the values, floats by repr, which parses back to the
same double and sign of zero, so saving a loaded document reproduces it byte
for byte. Loading checks the document's shape, and the record constructors
check its numbers, before any simulation may consume it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .ensembles import SymmetricEnsemble, symmetric_ensemble
from .errors import DomainError, ValidationError, check_instance
from .fidelity import Strategy
from .measurements import Pom, validate_pom
from .qubit import Hermitian2, PureQubit

FORMAT_VERSION = 1
_ENCODER = json.JSONEncoder(allow_nan=False)


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _render(value: Any, indent: int) -> str:
    """value as JSON text: non-empty objects, and lists holding anything but
    numbers, one item a line; every other value, a numeric row too, on one line."""
    pad = " " * indent
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(str(k))}: {_render(v, indent + 2)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and not all(map(_is_number, value)):
        items = [_render(x, indent + 2) for x in value]
        brackets = "[]"
    else:
        try:
            return _ENCODER.encode(value)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"cannot serialize: {exc}") from exc
    inner = ",\n".join(pad + "  " + item for item in items)
    return brackets[0] + "\n" + inner + "\n" + pad + brackets[1]


def strategy_document(e: SymmetricEnsemble, s: Strategy, generator: str,
                      parameters: dict[str, Any] | None = None) -> dict[str, Any]:
    """Plain-data document describing the strategy; DomainError where loading would reject it,
    or naming the type of an ensemble or strategy that is not one."""
    check_instance(e, "ensemble", SymmetricEnsemble)
    check_instance(s, "strategy", Strategy)
    if not isinstance(generator, str):
        raise DomainError(f"generator must be a string, got {generator!r}")
    if not isinstance(parameters, (dict, type(None))):
        raise DomainError(f"parameters must be a dict, got {parameters!r}")
    return {
        "format": "strategy",
        "version": FORMAT_VERSION,
        "generator": generator,
        "parameters": dict(parameters or {}),
        "ensemble": {"m": e.m, "theta": e.theta},
        "pom": [[el.a, el.b.real, el.b.imag, el.d] for el in s.pom.elements],
        "retransmit": [[q.amp_plus.real, q.amp_plus.imag,
                        q.amp_minus.real, q.amp_minus.imag] for q in s.retransmit],
    }


def render_document(doc: dict[str, Any]) -> str:
    return _render(doc, 0) + "\n"


def save_strategy(path: str | Path, e: SymmetricEnsemble, s: Strategy,
                  generator: str, parameters: dict[str, Any] | None = None) -> None:
    Path(path).write_text(render_document(strategy_document(e, s, generator, parameters)),
                          encoding="utf-8", newline="\n")


def _quadruples(doc: dict[str, Any], key: str, make: Callable[..., Any]) -> tuple:
    """The records make builds from the rows of doc[key], each a list of 4 numbers."""
    rows = doc[key]
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f'"{key}" must be a non-empty list')
    records = []
    for pos, row in enumerate(rows):
        # the number test also keeps out JSON true, which complex() would take as 1
        if not isinstance(row, list) or len(row) != 4 or not all(map(_is_number, row)):
            raise ValidationError(f'"{key}"[{pos}] must be a list of 4 numbers')
        try:
            records.append(make(*row))
        except (DomainError, OverflowError) as exc:  # OverflowError: complex() of a huge integer
            raise ValidationError(f'"{key}"[{pos}]: {exc}') from exc
    return tuple(records)


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
    try:  # json.loads takes NaN and Infinity, which saving the strategy again would reject
        _ENCODER.encode(doc["parameters"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f'"parameters": {exc}') from exc
    ens = doc["ensemble"]
    if not isinstance(ens, dict) or "m" not in ens or "theta" not in ens:
        raise ValidationError('"ensemble" must be an object with "m" and "theta"')
    try:
        ensemble = symmetric_ensemble(ens["m"], ens["theta"])
    except DomainError as exc:
        raise ValidationError(f"ensemble: {exc}") from exc
    elements = _quadruples(doc, "pom", lambda a, re_b, im_b, d: Hermitian2(a, d, complex(re_b, im_b)))
    states = _quadruples(doc, "retransmit", lambda *q: PureQubit(complex(*q[:2]), complex(*q[2:])))
    if len(states) != len(elements):
        raise ValidationError(f"{len(states)} retransmission states for {len(elements)} elements")
    try:
        pom = Pom(elements=elements)
    except DomainError as exc:  # non-finite terms
        raise ValidationError(f"pom: {exc}") from exc
    violations = validate_pom(pom)
    if violations:
        raise ValidationError(f"pom: {violations[0]}")
    meta = {"generator": doc["generator"], "parameters": doc["parameters"]}
    return ensemble, Strategy(pom=pom, retransmit=states), meta


def load_strategy(path: str | Path) -> tuple[SymmetricEnsemble, Strategy, dict[str, Any]]:
    """Read and validate a strategy document, UTF-8 JSON, from disk."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ValidationError(f"not valid JSON: {exc}") from exc
    return parse_strategy_document(doc)

"""Strategy document round-trips and validation on load."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import qrelay.ensembles
from qrelay import (DomainError, OptimizerConfig, Strategy, ValidationError, fidelity_of_strategy,
                    identity_sum_residual, load_strategy, make_qubit, optimal_retransmission,
                    optimal_strategy_analytic, optimize_fidelity, parse_strategy_document,
                    save_strategy, square_root_measurement, symmetric_ensemble, validate_pom)
from qrelay.strategy_io import FORMAT_VERSION, render_document, strategy_document

CASES = (
    (3, math.pi / 4, 3, 0.3),
    (2, math.pi / 3, None, 0.0),
    (5, 0.9, 7, 0.0),
    (4, 0.0, 2, 1.1),
)


def assert_lossless(tmp_path, e, s, generator, parameters):
    path = tmp_path / "case.strategy.json"
    save_strategy(path, e, s, generator, parameters)
    e2, s2, meta = load_strategy(path)
    assert e2.m == e.m and e2.theta == e.theta
    # elements and states rebuild from the parsed doubles exactly, so every
    # figure derived from them reads the same on the loaded strategy
    assert s2.pom.elements == s.pom.elements
    assert s2.retransmit == s.retransmit
    for ours, ref in zip((*s2.pom.terms, s2.vectors), (*s.pom.terms, s.vectors)):
        assert np.array_equal(ours, ref)
    assert fidelity_of_strategy(e2, s2) == fidelity_of_strategy(e, s)
    assert identity_sum_residual(s2.pom) == identity_sum_residual(s.pom)
    assert meta == {"generator": generator, "parameters": parameters}


@pytest.mark.parametrize("m,theta,n,alpha", CASES)
def test_roundtrip_is_lossless(tmp_path, m, theta, n, alpha):
    assert_lossless(tmp_path, symmetric_ensemble(m, theta),
                    optimal_strategy_analytic(m, theta, n_outputs=n, alpha=alpha),
                    "analytic", {"m": m, "theta": theta, "n_outputs": n, "alpha": alpha})


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_square_root_roundtrip_is_lossless(tmp_path, m):
    for theta in (0.3, 1.2):
        e = symmetric_ensemble(m, theta)
        pom = square_root_measurement(e)
        assert validate_pom(pom) == []
        assert_lossless(tmp_path, e, Strategy(pom, optimal_retransmission(e, pom).states),
                        "square_root", {"m": m, "theta": theta})


@pytest.mark.parametrize("m,theta", [(3, math.pi / 4), (5, 0.9)])
def test_search_roundtrip_is_lossless(tmp_path, m, theta):
    e = symmetric_ensemble(m, theta)
    for seed in (0, 1):
        s, achieved, _ = optimize_fidelity(e, OptimizerConfig(seed=seed))
        assert_lossless(tmp_path, e, s, "optimizer",
                        {"m": m, "theta": theta, "seed": seed, "achieved_f": achieved})


ROUNDTRIP_THETAS = helpers.THETA_GRID + (1.3932036158560628,)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_save_load_save_is_byte_identical(tmp_path, m):
    path = tmp_path / "grid.strategy.json"
    for theta in ROUNDTRIP_THETAS:
        e = symmetric_ensemble(m, theta)
        for n in (m, m + 3):
            for alpha in (0.0, 2.1):
                s = optimal_strategy_analytic(m, theta, n_outputs=n, alpha=alpha)
                save_strategy(path, e, s, generator="analytic",
                              parameters={"m": m, "theta": theta, "n_outputs": n, "alpha": alpha})
                text = path.read_text()
                e2, s2, meta = load_strategy(path)
                assert s2 == s
                save_strategy(path, e2, s2, meta["generator"], meta["parameters"])
                assert path.read_text() == text


# written by an earlier release, which rendered floats with 17 significant
# digits: -0.0 reads back as the integer 0 and 0.2 as 0.20000000000000001
LEGACY_DOCUMENT = """{
  "format": "strategy", "version": 1, "generator": "analytic",
  "parameters": {"m": 5, "theta": 1.3932036158560628, "n_outputs": 5, "alpha": 0},
  "ensemble": {"m": 5, "theta": 1.3932036158560628},
  "pom": [
    [0.20000000000000001, 0.20000000000000001, -0, 0.20000000000000001],
    [0.20000000000000001, 0.061803398874989493, -0.19021130325903071, 0.20000000000000001],
    [0.20000000000000001, -0.16180339887498946, -0.11755705045849466, 0.20000000000000001],
    [0.20000000000000001, -0.16180339887498951, 0.1175570504584946, 0.20000000000000001],
    [0.20000000000000001, 0.061803398874989444, 0.19021130325903074, 0.20000000000000001]
  ],
  "retransmit": [
    [0.81933761069699373, 0, 0.57331132877114988, 0],
    [0.81933761069699373, 0, 0.17716294365796806, 0.54525147509363525],
    [0.81933761069699373, 0, -0.46381860804354297, 0.33698394402388343],
    [0.81933761069699373, 0, -0.46381860804354308, -0.33698394402388326],
    [0.81933761069699373, 0, 0.17716294365796795, -0.54525147509363525]
  ]
}
"""


def test_legacy_document_loads_the_stored_values(tmp_path):
    path = tmp_path / "legacy.strategy.json"
    path.write_text(LEGACY_DOCUMENT)
    doc = json.loads(LEGACY_DOCUMENT)
    e, s, meta = load_strategy(path)
    assert e.theta == doc["ensemble"]["theta"]
    assert [[el.a, el.b.real, el.b.imag, el.d] for el in s.pom.elements] == doc["pom"]
    assert [[q.amp_plus.real, q.amp_plus.imag, q.amp_minus.real, q.amp_minus.imag]
            for q in s.retransmit] == doc["retransmit"]
    # saved again, it settles on the current rendering and stays there
    save_strategy(path, e, s, meta["generator"], meta["parameters"])
    text = path.read_text()
    e2, s2, meta2 = load_strategy(path)
    assert s2 == s
    save_strategy(path, e2, s2, meta2["generator"], meta2["parameters"])
    assert path.read_text() == text


def test_negative_zero_survives_rendering():
    assert json.loads(render_document({"x": -0.0, "y": [1.0, -0.0]})) == {"x": -0.0, "y": [1.0, -0.0]}
    assert math.copysign(1.0, json.loads(render_document({"x": -0.0}))["x"]) == -1.0
    assert isinstance(json.loads(render_document({"x": 2.0}))["x"], float)


def test_document_is_plain_json(tmp_path):
    e = symmetric_ensemble(3, 1.2)
    s = optimal_strategy_analytic(3, 1.2)
    path = tmp_path / "doc.strategy.json"
    save_strategy(path, e, s, generator="analytic")
    doc = json.loads(path.read_text())
    assert doc["format"] == "strategy"
    assert doc["version"] == FORMAT_VERSION
    assert doc == strategy_document(e, s, generator="analytic")
    assert len(doc["pom"]) == len(doc["retransmit"]) == 3
    assert all(len(row) == 4 for row in doc["pom"])


def test_rendering_uses_full_precision():
    e = symmetric_ensemble(2, 0.1234567890123456789)
    s = optimal_strategy_analytic(2, e.theta)
    text = render_document(strategy_document(e, s, generator="analytic"))
    reparsed = json.loads(text)
    assert reparsed["ensemble"]["theta"] == e.theta
    assert reparsed["pom"][0][1] == s.pom.elements[0].b.real


GOLDEN_ANALYTIC = """{
  "format": "strategy",
  "version": 1,
  "generator": "analytic",
  "parameters": {
    "m": 3,
    "theta": 0.7,
    "n_outputs": 4,
    "alpha": 0.3
  },
  "ensemble": {
    "m": 3,
    "theta": 0.7
  },
  "pom": [
    [0.25, 0.2388341222814015, -0.07388005166533489, 0.25],
    [0.25, -0.07388005166533489, -0.2388341222814015, 0.25],
    [0.25, -0.23883412228140152, 0.07388005166533482, 0.25],
    [0.25, 0.0738800516653348, 0.23883412228140152, 0.25]
  ],
  "retransmit": [
    [0.9912392635394817, 0.0, 0.12617938247045798, 0.039031856951469705],
    [0.9912392635394817, 0.0, -0.039031856951469705, 0.12617938247045798],
    [0.9912392635394817, 0.0, -0.12617938247045798, -0.03903185695146967],
    [0.9912392635394817, 0.0, 0.039031856951469664, -0.12617938247045798]
  ]
}
"""

NESTED_PARAMETERS = {
    "grid": [[0.1, 2], [-0.0, 1e-300]], "mixed": [1, "a", 2.5], "empty_list": [],
    "empty_dict": {}, "zero": -0.0, "big": 10 ** 29 + 7, "quote": 'say "hi"',
    "name": "Ångström θ", "nested": {"deep": [{"x": [True, None]}]}}

GOLDEN_NESTED = r"""{
  "format": "strategy",
  "version": 1,
  "generator": "search",
  "parameters": {
    "grid": [
      [0.1, 2],
      [-0.0, 1e-300]
    ],
    "mixed": [
      1,
      "a",
      2.5
    ],
    "empty_list": [],
    "empty_dict": {},
    "zero": -0.0,
    "big": 100000000000000000000000000007,
    "quote": "say \"hi\"",
    "name": "\u00c5ngstr\u00f6m \u03b8",
    "nested": {
      "deep": [
        {
          "x": [
            true,
            null
          ]
        }
      ]
    }
  },
  "ensemble": {
    "m": 2,
    "theta": 0.5
  },
  "pom": [
    [0.5, 0.5, 0.0, 0.5],
    [0.5, -0.5, 0.0, 0.5]
  ],
  "retransmit": [
    [0.9918091191589925, 0.0, 0.12772889709483676, 0.0],
    [0.9918091191589925, 0.0, -0.12772889709483676, 1.564227849858135e-17]
  ]
}
"""


def test_rendering_matches_the_golden_bytes(tmp_path):
    analytic = strategy_document(symmetric_ensemble(3, 0.7),
                                 optimal_strategy_analytic(3, 0.7, 4, 0.3), "analytic",
                                 {"m": 3, "theta": 0.7, "n_outputs": 4, "alpha": 0.3})
    nested = strategy_document(symmetric_ensemble(2, 0.5), optimal_strategy_analytic(2, 0.5),
                               "search", NESTED_PARAMETERS)
    assert render_document(analytic) == GOLDEN_ANALYTIC
    assert render_document(nested) == GOLDEN_NESTED
    path = tmp_path / "nested.strategy.json"
    path.write_text(GOLDEN_NESTED)
    assert load_strategy(path)[2]["parameters"] == NESTED_PARAMETERS


def test_saved_bytes_are_the_rendering_in_utf8_with_lf(tmp_path):
    """A saved document does not depend on the platform's encoding or line ending."""
    e, s = symmetric_ensemble(2, 0.5), optimal_strategy_analytic(2, 0.5)
    path = tmp_path / "nested.strategy.json"
    save_strategy(path, e, s, "search", NESTED_PARAMETERS)
    expected = render_document(strategy_document(e, s, "search", NESTED_PARAMETERS))
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("value", [math.nan, math.inf, {1, 2}, np.int64(3)],
                         ids=["nan", "inf", "set", "int64"])
@pytest.mark.parametrize("where", ["value", "row", "list"])
def test_rendering_rejects_values_json_cannot_hold(tmp_path, value, where):
    parameters = {"value": {"x": value}, "row": {"x": [1.0, value]},
                  "list": {"x": ["a", value]}}[where]
    with pytest.raises(DomainError):
        render_document(parameters)
    path = tmp_path / "never.strategy.json"
    with pytest.raises(DomainError):
        save_strategy(path, symmetric_ensemble(2, 0.5), optimal_strategy_analytic(2, 0.5),
                      "analytic", parameters)
    assert not path.exists()


@pytest.mark.parametrize("generator,parameters", [
    (5, None), (None, None), ("analytic", "ab"), ("analytic", 5), ("analytic", [1, 2])])
def test_saving_rejects_what_loading_would_reject(tmp_path, generator, parameters):
    e, s = symmetric_ensemble(2, 0.5), optimal_strategy_analytic(2, 0.5)
    with pytest.raises(DomainError, match="generator" if parameters is None else "parameters"):
        strategy_document(e, s, generator, parameters)
    path = tmp_path / "never.strategy.json"
    with pytest.raises(DomainError):
        save_strategy(path, e, s, generator, parameters)
    assert not path.exists()


def test_parse_rejects_structural_problems():
    base = strategy_document(symmetric_ensemble(2, 1.0),
                             optimal_strategy_analytic(2, 1.0), generator="analytic")
    good = json.loads(render_document(base))
    parse_strategy_document(good)

    for key in ("format", "version", "generator", "parameters", "ensemble", "pom", "retransmit"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValidationError, match=key):
            parse_strategy_document(broken)

    with pytest.raises(ValidationError, match="format"):
        parse_strategy_document({**good, "format": "something"})
    for version in (99, True, 1.0, "1", None):
        with pytest.raises(ValidationError, match="version"):
            parse_strategy_document({**good, "version": version})
    for generator in (5, None, ["x"], {}):
        with pytest.raises(ValidationError, match="generator"):
            parse_strategy_document({**good, "generator": generator})
    for parameters in ([], "p", None, 3):
        with pytest.raises(ValidationError, match="parameters"):
            parse_strategy_document({**good, "parameters": parameters})
    with pytest.raises(ValidationError, match="ensemble"):
        parse_strategy_document({**good, "ensemble": {"m": 2}})
    with pytest.raises(ValidationError, match="integer"):
        parse_strategy_document({**good, "ensemble": {"m": 2.0, "theta": 1.0}})
    with pytest.raises(ValidationError, match="ensemble"):
        parse_strategy_document({**good, "ensemble": {"m": 1, "theta": 1.0}})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "[1.0, NaN]", '{"x": Infinity}'])
def test_load_rejects_parameters_saving_would_reject(tmp_path, token):
    """json reads the NaN and Infinity tokens, which the writer refuses to emit."""
    text = render_document(strategy_document(symmetric_ensemble(3, 0.4),
                                             optimal_strategy_analytic(3, 0.4), "analytic",
                                             {"alpha": 0.0}))
    path = tmp_path / "nan.strategy.json"
    path.write_text(text.replace('"alpha": 0.0', f'"alpha": {token}'))
    assert "alpha" in json.loads(path.read_text())["parameters"]
    with pytest.raises(ValidationError, match="parameters"):
        load_strategy(path)


def test_integer_theta_loads_as_a_float():
    good = json.loads(render_document(strategy_document(
        symmetric_ensemble(3, 1.0), optimal_strategy_analytic(3, 1.0), generator="analytic")))
    e, _, _ = parse_strategy_document({**good, "ensemble": {"m": 3, "theta": 1}})
    assert type(e.theta) is float and e.theta == 1.0


def test_parse_rejects_bad_payloads():
    good = json.loads(render_document(strategy_document(
        symmetric_ensemble(2, 1.0), optimal_strategy_analytic(2, 1.0), generator="analytic")))

    with pytest.raises(ValidationError, match="4 numbers"):
        parse_strategy_document({**good, "pom": [[0.5, 0.0, 0.0]] * 2})
    with pytest.raises(ValidationError, match="retransmission states"):
        parse_strategy_document({**good, "retransmit": good["retransmit"][:1]})

    # a non positive-semidefinite element must be named in the violation
    tampered = [list(row) for row in good["pom"]]
    tampered[0][0] = -0.5
    tampered[1][0] = 1.5
    with pytest.raises(ValidationError, match="positive"):
        parse_strategy_document({**good, "pom": tampered})

    # elements that no longer sum to the identity
    inflated = [list(row) for row in good["pom"]]
    inflated[0][0] += 0.25
    with pytest.raises(ValidationError, match="identity"):
        parse_strategy_document({**good, "pom": inflated})

    # denormalized retransmission state, named by position
    sick = [list(row) for row in good["retransmit"]]
    sick[1] = [0.5, 0.0, 0.0, 0.0]
    with pytest.raises(ValidationError, match=r"retransmit.*1"):
        parse_strategy_document({**good, "retransmit": sick})


@pytest.mark.parametrize("where", ["theta", "pom", "retransmit"])
@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, 1e200],
                         ids=["int_1e400", "int_minus_1e400", "float_1e200"])
def test_parse_rejects_numbers_beyond_double_range(where, value):
    good = json.loads(render_document(strategy_document(
        symmetric_ensemble(3, 0.7), optimal_strategy_analytic(3, 0.7), generator="analytic")))
    if where == "theta":
        doc = {**good, "ensemble": {"m": 3, "theta": value}}
    else:
        doc = {**good, where: [[value, 0.0, 0.0, 0.0]] + good[where][1:]}
    with pytest.raises(ValidationError):
        parse_strategy_document(doc)


def test_load_rejects_an_element_whose_terms_overflow(tmp_path):
    # every entry is a finite double, but a + d is not
    doc = json.loads(render_document(strategy_document(
        symmetric_ensemble(2, 0.7), optimal_strategy_analytic(2, 0.7), generator="analytic")))
    doc["pom"][0] = [1e308, 0.0, 0.0, 1e308]
    path = tmp_path / "overflow.strategy.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="pom: element 0 has a non-finite entry"):
        load_strategy(path)


def test_load_rejects_elements_whose_sum_overflows(tmp_path):
    # every term is finite, but their sum over the elements is not
    doc = json.loads(render_document(strategy_document(
        symmetric_ensemble(5, 0.7), optimal_strategy_analytic(5, 0.7), generator="analytic")))
    doc["pom"][1][0], doc["pom"][4][0] = 1.7e308, 1e308
    path = tmp_path / "overflow.strategy.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"pom: elements do not sum to the identity \(residual inf\)"):
        load_strategy(path)


# JSON as json.loads gives it. "m" also takes sizes up to 10^12: parsing never builds
# the signal states, so it costs the same for any m. NUMBERS, with integers and floats
# beyond the double range, fill theta and the quadruples only.
SMALL_INTS = st.integers(-3, 12)
SIZES = SMALL_INTS | st.integers(13, 10 ** 12)
NUMBERS = SMALL_INTS | st.floats() | st.sampled_from(
    [10 ** 400, -10 ** 400, 2 ** 64, 1e200, -1e155, 1e-320, 0.5, -0.0])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)
GOOD = json.loads(render_document(strategy_document(
    symmetric_ensemble(3, 0.7), optimal_strategy_analytic(3, 0.7, n_outputs=4),
    generator="analytic")))


@st.composite
def rows(draw, key):
    """A valid row list with some entries replaced, or arbitrary rows."""
    good = [list(row) for row in GOOD[key]]
    if draw(st.booleans()):
        return draw(st.lists(st.lists(NUMBERS, min_size=3, max_size=5), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(good) - 1))
        good[row][draw(st.integers(0, 3))] = draw(NUMBERS)
    return good


@st.composite
def documents(draw):
    """The valid document with up to two keys dropped or replaced, the payload keys most often."""
    doc = dict(GOOD)
    fields = {"ensemble": st.fixed_dictionaries({"m": SIZES | JSON_VALUES,
                                                 "theta": NUMBERS | JSON_VALUES}),
              "pom": rows("pom"), "retransmit": rows("retransmit")}
    for key in draw(st.lists(st.sampled_from(tuple(GOOD) + tuple(fields) * 2), max_size=2)):
        if draw(st.integers(0, 4)) == 0:
            doc.pop(key, None)
        else:
            doc[key] = draw(fields.get(key, JSON_VALUES))
    return doc


@settings(max_examples=500, derandomize=True, deadline=None)
@given(doc=documents() | JSON_VALUES)
def test_any_json_value_parses_to_a_sound_strategy_or_fails_validation(doc):
    try:
        _, strategy, _ = parse_strategy_document(json.loads(json.dumps(doc)))
    except ValidationError:
        return
    assert validate_pom(strategy.pom) == []
    assert len(strategy.retransmit) == len(strategy.pom)


def test_parsing_builds_no_signal_states(monkeypatch):
    doc = json.loads(render_document(strategy_document(
        symmetric_ensemble(1000, 0.7), optimal_strategy_analytic(1000, 0.7, n_outputs=3),
        generator="analytic")))
    calls = []

    def counted(*args):
        calls.append(args)
        return make_qubit(*args)

    monkeypatch.setattr(qrelay.ensembles, "make_qubit", counted)
    e, strategy, _ = parse_strategy_document(doc)
    assert (e.m, len(strategy.pom)) == (1000, 3)
    assert calls == []
    # the states are still there, built on first use from (m, theta)
    assert e.states == tuple(make_qubit(0.7, 2 * math.pi * j / 1000) for j in range(1000))
    assert len(calls) == 1000


def test_load_rejects_malformed_text(tmp_path):
    path = tmp_path / "broken.strategy.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_strategy(path)


UNREADABLE = {"not_utf8": b"\xff\xfe\x00garbage",
              "too_deep": ('{"a": ' * 100000 + "1" + "}" * 100000).encode()}


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_load_rejects_unreadable_text(tmp_path, content):
    path = tmp_path / "unreadable.strategy.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match="JSON"):
        load_strategy(path)


def test_saved_document_revalidates(tmp_path):
    e = symmetric_ensemble(4, 0.7)
    s = optimal_strategy_analytic(4, 0.7, n_outputs=4, alpha=0.25)
    path = tmp_path / "valid.strategy.json"
    save_strategy(path, e, s, generator="analytic")
    _, loaded, _ = load_strategy(path)
    assert validate_pom(loaded.pom) == []
    # byte-identical on re-save: the document carries no timestamps
    text = path.read_text()
    save_strategy(path, e, s, generator="analytic")
    assert path.read_text() == text

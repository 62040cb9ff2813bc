"""Tests of the drift report's comparison (tests/drift.py) on small
synthetic manifests; a full snapshot is a tool run, not a test."""

import json

import pytest

import drift

BASE = {
    "curve i2_min x 0.02": "exit 0\nt_xi_i1,t_xi_i2_min_fisher\n0.5,1.25\n0.52,infeasible\n",
    "threshold fisher 1": (1.0).hex(),
    "design 2 0 0": "(Design(i2_min=0.1), EvaluationResult(overall_power=0.8))",
    "oracle combination fisher power": "0.8125 oracle 0.8",
}


def test_identical_manifests_report_nothing():
    assert drift.compare(BASE, dict(BASE)) == []


def test_each_moved_quantity_reports_its_largest_relative_move():
    moved = dict(BASE)
    moved["curve i2_min x 0.02"] = "exit 0\nt_xi_i1,t_xi_i2_min_fisher\n0.5,1.3\n0.52,infeasible\n"
    moved["threshold fisher 1"] = (1.0 + 2**-52).hex()
    assert drift.compare(BASE, moved) == [
        "curve i2_min x 0.02: largest relative move 0.0385",
        "threshold fisher 1: largest relative move 2.22e-16",
    ]


def test_oracle_quantities_report_the_value_move_and_both_distances():
    moved = dict(BASE)
    moved["oracle combination fisher power"] = "0.796875 oracle 0.796875"
    assert drift.compare(BASE, moved) == [
        "oracle combination fisher power: relative move 0.0192; "
        "|A - oracle| 0.0125, |B - oracle| 0",
    ]
    # A quantity whose oracle cannot be read is compared as any other.
    moved["oracle combination fisher power"] = "ConvergenceError('quadrature')"
    assert drift.compare(BASE, moved) == [
        "oracle combination fisher power: text differs (2 against 0 numbers)"]


def test_unreadable_moves_are_named():
    other = {k: v for k, v in BASE.items() if k != "threshold fisher 1"}
    other["design 2 0 0"] = "ConvergenceError('quadrature used 400 panels')"
    other["simulate x"] = "exit 0\n"
    assert drift.compare(BASE, other) == [
        "design 2 0 0: text differs (3 against 1 numbers)",
        "simulate x: only in B",
        "threshold fisher 1: only in A",
    ]
    assert drift.compare({"a": "exit 2\nerror: x"}, {"a": "exit 2\nerror: y"}) == [
        "a: text differs, numbers equal"]


@pytest.mark.parametrize("a, b, move", [
    (1.0, 1.0, 0.0), (float("nan"), float("nan"), 0.0), (0.0, -0.0, 0.0),
    (2.0, 1.0, 0.5), (1.0, float("inf"), float("inf")), (0.0, 1e-300, 1.0),
])
def test_relative_move(a, b, move):
    assert drift._move(a, b) == move


def test_compare_command_prints_and_exits(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BASE), encoding="utf-8")
    b.write_text(json.dumps(BASE), encoding="utf-8")
    assert drift.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical (4 quantities)\n"
    b.write_text(json.dumps({**BASE, "threshold fisher 1": (0.75).hex()}), encoding="utf-8")
    assert drift.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == ("threshold fisher 1: largest relative move 0.25\n"
                                       "1 of 4 quantities differ\n")


def test_oracle_lines_of_a_drawn_fisher_design(monkeypatch):
    # The first of ORACLE_DRAWS, the binding Fisher design 2 0 0, as snapshot
    # writes its lines: each value within 1e-10 of its 30-digit reference.
    monkeypatch.syspath_prepend(str(drift.HERE.parent / "bench"))
    from generator import draw_cases

    from fasttrack import cef, combination, power
    from fasttrack.design import DesignParams

    seed, batch, i = drift.ORACLE_DRAWS[0]
    case = draw_cases(seed, batch, i + 1)[i]
    assert (case.mode, case.family) == ("fasttrack_binding", "fisher")
    params = DesignParams(alpha=case.alpha, alpha_c=case.alpha_c, beta=case.beta,
                          delta_rel=case.delta_rel, xi=case.xi, i1=case.i1)
    design = power.build_fasttrack(params, "fisher")
    lines = drift.oracle_lines(cef, power, combination, design, "design 2 0 0")
    assert list(lines) == [f"oracle design 2 0 0 {q}" for q in ("level", "power", "mean_i2")]
    for name, text in lines.items():
        value, oracle = drift._numbers(text)
        assert value == pytest.approx(oracle, abs=1e-10), name


def test_constant_lines_read_the_design_constants():
    # What snapshot writes for a design of tests/test_design_constants.py:
    # the repr of its constants, whose numbers are the frozen ones.
    import test_design_constants as constants

    key = "combo/0.6/combination/z_combination"
    (name, text), = drift.constant_lines(constants.design_constants, [key]).items()
    assert name == f"constants {key}"
    values, frozen = eval(text), json.loads(constants.FROZEN.read_text())[key]
    assert values.keys() == frozen.keys()
    assert [v for v in values.values() if v is not None] == pytest.approx(
        [v for v in frozen.values() if v is not None], rel=1e-10)

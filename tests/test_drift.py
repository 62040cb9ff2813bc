"""Tests of the drift report's comparison (tests/drift.py) on small
synthetic manifests; a full snapshot is a tool run, not a test."""

import json

import pytest

import drift

BASE = {
    "curve i2_min x 0.02": "exit 0\nt_xi_i1,t_xi_i2_min_fisher\n0.5,1.25\n0.52,infeasible\n",
    "threshold fisher 1": (1.0).hex(),
    "design 2 0 0": "(Design(i2_min=0.1), EvaluationResult(overall_power=0.8))",
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
    assert capsys.readouterr().out == "identical (3 quantities)\n"
    b.write_text(json.dumps({**BASE, "threshold fisher 1": (0.75).hex()}), encoding="utf-8")
    assert drift.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "threshold fisher 1: largest relative move 0.25\n"

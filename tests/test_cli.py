"""End-to-end tests of the command-line interface."""

import csv
import math
import re
from pathlib import Path

import pytest

import pointwise_curve
from conftest import SIGMA
from fasttrack import cef as cef_mod
from fasttrack import cli
from fasttrack.numerics import ConvergenceError

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
FROZEN = Path(__file__).resolve().parent / "data"
FASTTRACK = str(BENCH_DATA / "fasttrack_binding_fisher.txt")
COMBINATION = str(BENCH_DATA / "combination_example.txt")
TINY_ALPHA_FISHER = str(FROZEN / "tiny_alpha_fisher.txt")

# Outputs recorded before cli printed each command from one record:
# case -> (argv, whether it also takes --out).  The case's stdout is in
# FROZEN / "<case>.txt" (absent: empty) and its CSV in FROZEN / "<case>.csv".
_DERIVE_SCENARIOS = {
    "fasttrack": FASTTRACK,
    "combination": COMBINATION,
    # With sigma, below xi_min: the size lines (the warning goes to stderr).
    "xi_below_min": str(FROZEN / "xi_below_min.txt"),
    # xi = 1 has no finite I1_min, so n1_min is left out.
    "xi_one": str(FROZEN / "xi_one.txt"),
}
FROZEN_CASES = {
    **{
        f"derive_{name}_{rounding}": (
            ["derive", "--scenario", path, "--round", rounding], False)
        for name, path in _DERIVE_SCENARIOS.items()
        for rounding in ("ceil", "nearest")
    },
    **{
        f"table1_{rounding}": (["table1", "--round", rounding], True)
        for rounding in ("ceil", "nearest")
    },
    **{
        f"curve_{kind}": (
            ["curve", "--scenario", path, "--kind", kind, "--grid-step", "0.05"],
            True)
        for kind, path in (
            ("alpha_rel", FASTTRACK), ("i1_min_trel", FASTTRACK),
            ("i1_min_txi", FASTTRACK), ("i2_mean", FASTTRACK),
            ("i2_max", FASTTRACK), ("total_mean", FASTTRACK),
            ("total_max", FASTTRACK), ("combo_panel", COMBINATION),
        )
    },
    **{
        f"simulate_{name}": (
            ["simulate", "--scenario", path, "--reps", "20000", "--seed", "7"],
            True)
        for name, path in (("fasttrack", FASTTRACK),
                           ("combination", COMBINATION))
    },
}

_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?(?![\w.])")


def assert_same_text(got: str, want: str) -> None:
    """Same lines with the same words between the numbers, and each number
    within 1e-7 of the recorded one."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        assert _NUMBER.split(g) == _NUMBER.split(w), (g, w)
        got_numbers = [float(x) for x in _NUMBER.findall(g)]
        want_numbers = [float(x) for x in _NUMBER.findall(w)]
        assert got_numbers == pytest.approx(want_numbers, abs=1e-7), (g, w)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def parse_derive(out: str) -> dict:
    values = {}
    for line in out.splitlines():
        if "=" not in line:
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        values[key] = value
    return values


class TestDerive:
    def test_reference_quantities(self, write_scenario, capsys):
        path = write_scenario(sigma=SIGMA)
        assert cli.main(["derive", "--scenario", path]) == cli.EXIT_OK
        got = parse_derive(capsys.readouterr().out)
        assert float(got["eta_f"]) == pytest.approx(2.8016, abs=5e-4)
        assert float(got["z_f"]) == pytest.approx(1.0850, abs=5e-4)
        assert int(got["n_rel"]) in (419, 420, 421)
        assert int(got["n_delta"]) in (104, 105, 106)
        assert int(got["n1_max"]) in (205, 206, 207)
        assert int(got["n1_min"]) in (47, 48, 49)

    def test_half_relevance_pilot(self, write_scenario, capsys):
        path = write_scenario(t_xi_i1=None, t_rel_i1=0.5, sigma=SIGMA)
        assert cli.main(["derive", "--scenario", path]) == cli.EXIT_OK
        got = parse_derive(capsys.readouterr().out)
        assert int(got["n1"]) in (209, 210, 211)

    def test_warns_below_minimal_effect_ratio(self, write_scenario, capsys):
        path = write_scenario(xi=1.3)
        assert cli.main(["derive", "--scenario", path]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "warning: xi below xi_min" in captured.err
        assert "warning" not in captured.out

    def test_level_that_rounds_away_is_invalid_input(self, write_scenario, capsys):
        path = write_scenario(alpha=1e-17)
        assert cli.main(["derive", "--scenario", path]) == cli.EXIT_INVALID
        assert "alpha=1e-17" in capsys.readouterr().err

    def test_nearest_rounding(self, write_scenario, capsys):
        path = write_scenario(sigma=SIGMA)
        assert (
            cli.main(["derive", "--scenario", path, "--round", "nearest"])
            == cli.EXIT_OK
        )
        got = parse_derive(capsys.readouterr().out)
        assert int(got["n_rel"]) in (419, 420)


class TestCurves:
    def test_alpha_rel_curve(self, write_scenario, tmp_path):
        path = write_scenario()
        out = str(tmp_path / "c.csv")
        rc = cli.main(
            ["curve", "--scenario", path, "--kind", "alpha_rel", "--out", out,
             "--grid-step", "0.01"]
        )
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t_rel_i1", "alpha_rel"]
        t_star = 0.48944  # relative pilot size where alpha_rel equals alpha
        nearest = min(rows, key=lambda r: abs(float(r[0]) - t_star))
        assert float(nearest[1]) == pytest.approx(0.025, abs=1e-3)

    def test_i2_min_curve_landmarks_and_infeasible_markers(
        self, write_scenario, tmp_path
    ):
        path = write_scenario()
        out = str(tmp_path / "c.csv")
        rc = cli.main(
            ["curve", "--scenario", path, "--kind", "i2_min", "--out", out,
             "--grid-step", "0.1"]
        )
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header[0] == "t_xi_i1"
        by_t = {round(float(r[0]), 3): r[1:] for r in rows}
        # Below the feasibility bound (t ~ 0.4494) every family is marked.
        assert by_t[0.4] == [cli.INFEASIBLE] * 3
        assert by_t[0.1] == [cli.INFEASIBLE] * 3
        vals = [float(x) for x in by_t[0.6]]
        assert vals[0] == pytest.approx(1.41, abs=0.01)
        assert vals[1] == pytest.approx(0.33, abs=0.01)
        assert vals[2] == pytest.approx(0.29, abs=0.01)

    def test_i2_const_curve_crossing(self, write_scenario, tmp_path):
        path = write_scenario(
            delta_rel=1.4, xi=1.25, t_xi_i1=0.5,
            family="z_combination", mode="combination",
        )
        out = str(tmp_path / "c.csv")
        rc = cli.main(
            ["curve", "--scenario", path, "--kind", "i2_const", "--out", out,
             "--grid-step", "0.1"]
        )
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        col = header.index("t_xi_i2_const_z_combination")
        by_t = {round(float(r[0]), 3): float(r[col]) for r in rows}
        # The raised combined z-test needs more than a single study below
        # t ~ 0.33 and less above.
        assert by_t[0.3] > 1.0
        assert by_t[0.4] < 1.0

    def test_i2_const_curve_up_to_the_largest_pilot(self, write_scenario, tmp_path):
        # At xi = 6 the largest pilots put z_f far below the pilot mean, where
        # the waive branch holds only the tail just below z_f.  The flat level
        # still needs exactly the single-study information there.
        path = write_scenario(
            delta_rel=1.4, xi=6.0, t_xi_i1=0.5,
            family="z_combination", mode="combination",
        )
        out = str(tmp_path / "c.csv")
        rc = cli.main(
            ["curve", "--scenario", path, "--kind", "i2_const", "--out", out,
             "--grid-step", "1.0"]
        )
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        col = header.index("t_xi_i2_const_constant")
        assert float(rows[-1][0]) == 17.0  # 0.965 * I1_max
        for row in rows:
            assert float(row[col]) == pytest.approx(1.0, abs=1e-9), row

    @pytest.mark.parametrize("step", (0.5, 0.1, 0.02))
    def test_i2_const_curve_calibrates_each_family_once(self, step, tmp_path,
                                                       monkeypatch):
        # The inverse-normal CEF, once for the whole grid; Fisher's c, solved
        # in closed form, and the z-combination alpha_prime, which the curve
        # does not print, never.  Counted where the column solve starts each
        # calibration's search.
        calls = []

        def counted(*args):
            calls.append(args)
            return search(*args)

        search = cef_mod.calibration_search
        monkeypatch.setattr(cef_mod, "calibration_search", counted)
        rc = cli.main(["curve", "--scenario", COMBINATION, "--kind", "i2_const",
                       "--out", str(tmp_path / "c.csv"), "--grid-step", str(step)])
        assert rc == cli.EXIT_OK
        assert len(calls) == 1

    def test_csv_roundtrip_is_exact(self, write_scenario, tmp_path):
        # Parsing the emitted CSV and re-rendering it at 10 significant
        # digits reproduces the file byte for byte.
        path = write_scenario()
        out = tmp_path / "c.csv"
        cli.main(
            ["curve", "--scenario", path, "--kind", "alpha_rel",
             "--out", str(out), "--grid-step", "0.05"]
        )
        original = out.read_text()
        header, rows = read_csv(str(out))
        rebuilt = [",".join(header)]
        for row in rows:
            rebuilt.append(",".join(f"{float(x):.10g}" for x in row))
        assert original == "\n".join(rebuilt) + "\n"

    def test_kind_mode_mismatch(self, write_scenario, tmp_path):
        path = write_scenario(
            delta_rel=1.4, xi=1.25, family="z_combination", mode="combination",
            t_xi_i1=0.5,
        )
        out = str(tmp_path / "c.csv")
        rc = cli.main(
            ["curve", "--scenario", path, "--kind", "i2_min", "--out", out]
        )
        assert rc == cli.EXIT_INVALID
        path2 = write_scenario(name="s2.txt")
        rc = cli.main(
            ["curve", "--scenario", path2, "--kind", "i2_const", "--out", out]
        )
        assert rc == cli.EXIT_INVALID

    @pytest.mark.parametrize("kind, scenario", [
        ("i2_min", "fasttrack_binding_fisher.txt"),
        ("i2_const", "combination_example.txt"),
    ])
    def test_matches_golden_curve(self, kind, scenario, tmp_path):
        # The benchmark's golden CSVs, frozen from the first imported
        # package: same header and infeasible cells, numbers within 1e-7.
        out = str(tmp_path / "c.csv")
        rc = cli.main(["curve", "--scenario", str(BENCH_DATA / scenario),
                       "--kind", kind, "--out", out, "--grid-step", "0.02"])
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        want_header, want_rows = read_csv(BENCH_DATA / f"golden_{kind}.csv")
        assert header == want_header
        assert len(rows) == len(want_rows)
        for got, want in zip(rows, want_rows):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if cli.INFEASIBLE in (g, w):
                    assert g == w
                else:
                    assert float(g) == pytest.approx(float(w), abs=1e-7)


class TestLockstepCurves:
    """``curve`` solves each family's column over the whole grid in lockstep;
    its CSV is byte for byte the one built one grid point at a time, the
    infeasible cells included."""

    @pytest.mark.parametrize("kind, scenario", [
        *((kind, "fasttrack_binding_fisher.txt") for kind in pointwise_curve.STATS),
        ("i2_min", "nonbinding"),
        ("i2_const", "combination_example.txt"),
        ("combo_panel", "combination_example.txt"),
        *(("combo_panel", family) for family in ("constant", "inverse_normal", "fisher")),
    ])
    def test_equals_the_pointwise_build(self, kind, scenario, write_scenario, tmp_path):
        # A single build is a column of one design, so this is also the check
        # that a column of one solves to the floats of the whole column.
        if scenario == "nonbinding":  # the bench scenario, with z0 = -inf
            path = write_scenario(mode="fasttrack_nonbinding")
        elif scenario in cef_mod.FAMILIES:  # the bench combination example's
            path = write_scenario(delta_rel=1.4, xi=1.25, t_xi_i1=0.5, mode="combination",
                                  family=scenario)
        else:
            path = str(BENCH_DATA / scenario)
        out, want = tmp_path / "curve.csv", tmp_path / "pointwise.csv"
        rc = cli.main(["curve", "--scenario", path, "--kind", kind, "--out", str(out),
                       "--grid-step", "0.05"])
        assert rc == cli.EXIT_OK
        pointwise_curve.write(path, kind, str(want), 0.05)
        assert cli.INFEASIBLE in want.read_text() or kind in ("i2_const", "combo_panel")
        assert out.read_bytes() == want.read_bytes()


class TestTable:
    def test_worked_example_table(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert cli.main(["table1", "--out", out]) == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header[0] == "family"
        expected = {
            "constant": (137, 130, 215, 139),
            "inverse_normal": (137, 14, 137, 68),
            "fisher": (137, 12, 141, 70),
            "z_combination": (124, 22, 124, 70),
        }
        n1 = 69
        for row in rows:
            family = row[0]
            cells = [int(x) for x in row[1:]]
            want = expected[family]
            for k, w in enumerate(want):
                assert abs(cells[2 * k] - w) <= 1, (family, cells)
                assert cells[2 * k + 1] == cells[2 * k] + n1


class TestSimulate:
    def test_deterministic_output(self, write_scenario, tmp_path):
        path = write_scenario()
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            rc = cli.main(
                ["simulate", "--scenario", path, "--out", str(out),
                 "--reps", "20000", "--seed", "7"]
            )
            assert rc == cli.EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_estimates_near_targets(self, write_scenario, tmp_path, capsys):
        path = write_scenario()
        out = str(tmp_path / "s.csv")
        rc = cli.main(
            ["simulate", "--scenario", path, "--out", out, "--reps", "50000"]
        )
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        null_row = dict(zip(header, rows[0]))
        alt_row = dict(zip(header, rows[1]))
        assert float(null_row["theta"]) == 0.0
        assert float(null_row["p_reject_hat"]) <= 0.025 + 3 * math.sqrt(
            0.025 * 0.975 / 50000
        )
        assert float(alt_row["p_reject_hat"]) == pytest.approx(0.8, abs=0.01)

    @pytest.mark.parametrize("i1", [73.0, 100.0])
    @pytest.mark.parametrize("family", ["inverse_normal", "fisher"])
    def test_pilot_far_above_i1_max(self, i1, family, write_scenario, tmp_path):
        # z_f = sqrt(I1) * delta_rel >= 8.5 builds a saturated design.
        path = write_scenario(t_xi_i1=None, i1=i1, family=family)
        rc = cli.main(
            ["simulate", "--scenario", path, "--out", str(tmp_path / "s.csv"),
             "--reps", "1000"]
        )
        assert rc == cli.EXIT_OK

    def test_tiny_alpha_fisher_combination(self, tmp_path):
        # Fisher's c solved in closed form at alpha = 1e-15 and its A read
        # through the survival function: the waive branch reaches 1 - beta,
        # and so does the whole design.
        out = str(tmp_path / "s.csv")
        rc = cli.main(["simulate", "--scenario", TINY_ALPHA_FISHER, "--out", out,
                       "--reps", "10000"])
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        null_row, alt_row = (dict(zip(header, row)) for row in rows)
        assert float(null_row["p_reject_hat"]) == 0.0
        se = float(alt_row["p_reject_se"])
        assert float(alt_row["p_reject_hat"]) == pytest.approx(0.8, abs=4 * se)

    def test_pilot_below_i1_min_is_infeasible(self, write_scenario, tmp_path,
                                              capsys):
        # t_xi 0.01 lies below I1_min: no floor reaches power 1 - beta.
        path = write_scenario(t_xi_i1=0.01)
        rc = cli.main(
            ["simulate", "--scenario", path, "--out", str(tmp_path / "s.csv"),
             "--reps", "1000"]
        )
        assert rc == cli.EXIT_INFEASIBLE == 4
        assert "continuation probability" in capsys.readouterr().err

    def test_rejects_bad_reps(self, write_scenario, tmp_path):
        path = write_scenario()
        rc = cli.main(
            ["simulate", "--scenario", path, "--out", str(tmp_path / "s.csv"),
             "--reps", "0"]
        )
        assert rc == cli.EXIT_INVALID

    def test_rejects_seed_beyond_64_bits(self, write_scenario, tmp_path):
        # It would alias another seed's stream in the 128-bit Philox key.
        path = write_scenario()
        rc = cli.main(
            ["simulate", "--scenario", path, "--out", str(tmp_path / "s.csv"),
             "--reps", "100", "--seed", str(2**64)]
        )
        assert rc == cli.EXIT_INVALID

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_checks_seed_before_building(self, seed, write_scenario, tmp_path,
                                         monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("design built for an invalid seed")

        monkeypatch.setattr(cli, "_build_design", build)
        rc = cli.main(
            ["simulate", "--scenario", write_scenario(), "--out",
             str(tmp_path / "s.csv"), "--reps", "100", "--seed", str(seed)]
        )
        assert rc == cli.EXIT_INVALID


@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_matches_frozen_output(case, tmp_path, capsys):
    argv, writes_csv = FROZEN_CASES[case]
    out = tmp_path / "out.csv"
    rc = cli.main(argv + ["--out", str(out)] if writes_csv else argv)
    assert rc == cli.EXIT_OK
    stdout = FROZEN / f"{case}.txt"
    want = stdout.read_text(encoding="utf-8") if stdout.exists() else ""
    assert_same_text(capsys.readouterr().out, want)
    if writes_csv:
        assert_same_text(out.read_text(encoding="utf-8"),
                         (FROZEN / f"{case}.csv").read_text(encoding="utf-8"))


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path):
        rc = cli.main(["derive", "--scenario", str(tmp_path / "nope.txt")])
        assert rc == cli.EXIT_INVALID

    @pytest.mark.parametrize("step", ["-0.1", "0", "nan", "inf"])
    def test_bad_grid_step(self, write_scenario, tmp_path, capsys, step):
        path = write_scenario()
        rc = cli.main(
            ["curve", "--scenario", path, "--kind", "alpha_rel",
             "--out", str(tmp_path / "c.csv"), "--grid-step", step]
        )
        assert rc == cli.EXIT_INVALID
        assert "--grid-step must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["alpha_rel", "i2_min"])
    def test_grid_step_too_fine(self, write_scenario, tmp_path, capsys, kind):
        # About 10^12 abscissas: the count is refused before any is built.
        out = tmp_path / "c.csv"
        rc = cli.main(["curve", "--scenario", write_scenario(), "--kind", kind,
                       "--out", str(out), "--grid-step", "1e-12"])
        assert rc == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "--grid-step 1e-12 would give more than 1,000,000 grid points" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, step, overrides, span", [
        ("i2_min", "5", {}, "from 5.0 to 1.95771062913996"),
        ("alpha_rel", "1.5", {}, "from 1.5 to 1.0"),
        # The default step: I1_max / I_delta is about 0.0015 here.
        ("i2_min", None, dict(alpha=0.45, alpha_c=0.49, beta=0.001, xi=1.0),
         "from 0.002 to 0.0015"),
    ])
    def test_grid_without_a_point(self, write_scenario, tmp_path, capsys, kind, step,
                                  overrides, span):
        out = tmp_path / "c.csv"
        argv = ["curve", "--scenario", write_scenario(**overrides), "--kind", kind,
                "--out", str(out)]
        rc = cli.main(argv + (["--grid-step", step] if step else []))
        assert rc == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert f"gives no grid point {span}" in err and "--grid-step" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["curve", "--kind", "alpha_rel"], ["table1"], ["simulate", "--reps", "10"],
        ["curve", "--kind", "i2_min"]])
    def test_unwritable_out(self, write_scenario, tmp_path, capsys, monkeypatch, command):
        # Checked before anything is built: each build, and the derive every
        # curve starts from, fails the test if it runs.
        def built(*args, **kwargs):
            pytest.fail("computed before --out was checked")

        for module, name in ((cli.power_mod, "build_fasttrack"),
                             (cli.power_mod, "build_fasttrack_many"),
                             (cli.comb_mod, "build_combination"),
                             (cli.comb_mod, "build_combination_many"),
                             (cli.comb_mod, "solve_i2_const_many"), (cli, "derive")):
            monkeypatch.setattr(module, name, built)
        scenario = [] if command == ["table1"] else ["--scenario", write_scenario()]
        files = list(tmp_path.rglob("*"))
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert cli.main(command + scenario + ["--out", str(out)]) == cli.EXIT_INVALID
            assert f"cannot write {out}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == files

    @pytest.mark.parametrize("overrides, field", [
        (dict(delta_rel=1e160), "delta_rel=1e+160"),
        (dict(xi=1e200, delta_rel=1e200), "delta_rel=1e+200"),
        (dict(delta_rel=1e-200, t_xi_i1=0.5), "delta_rel=1e-200"),
        (dict(t_xi_i1=1e308), "i1=inf"),  # t_xi_i1 * I_delta overflows
    ])
    def test_effect_without_a_finite_information_is_invalid_input(
            self, write_scenario, capsys, overrides, field):
        # I_rel or I_delta = eta_f^2 / effect^2 overflows or divides by zero.
        rc = cli.main(["derive", "--scenario", write_scenario(**overrides)])
        assert rc == cli.EXIT_INVALID
        assert field in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, write_scenario, tmp_path):
        path = write_scenario()
        with pytest.raises(SystemExit):
            cli.main(
                ["curve", "--scenario", path, "--kind", "nope",
                 "--out", str(tmp_path / "c.csv")]
            )

    def test_numerical_failure_exit_code(self, write_scenario, monkeypatch):
        path = write_scenario()

        def boom(*args, **kwargs):
            raise ConvergenceError("no convergence", 0.0, 1.0)

        monkeypatch.setattr(cli, "cmd_derive", boom)
        assert cli.main(["derive", "--scenario", path]) == cli.EXIT_NUMERICAL

    def test_nan_root_objective_exit_code(self, write_scenario, tmp_path, monkeypatch):
        # A NaN level integral reaches calibrate's root search, which raises
        # FloatingPointError: a numerical failure, not invalid input.  Fisher
        # is solved without a level integral; inverse normal calibrates.
        path = write_scenario(family="inverse_normal")
        monkeypatch.setattr(cef_mod, "level_integral", lambda cef, lower: math.nan)
        rc = cli.main(["simulate", "--scenario", path, "--reps", "10",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == cli.EXIT_NUMERICAL


class TestComboPanel:
    def test_panel_columns(self, write_scenario, tmp_path):
        path = write_scenario(
            delta_rel=1.4, xi=1.25, t_xi_i1=0.5,
            family="z_combination", mode="combination",
        )
        out = str(tmp_path / "p.csv")
        rc = cli.main(
            ["curve", "--scenario", path, "--kind", "combo_panel",
             "--out", out, "--grid-step", "0.25"]
        )
        assert rc == cli.EXIT_OK
        header, rows = read_csv(out)
        assert header == [
            "t_xi_i1", "t_xi_i2_const", "t_xi_i2_min", "t_xi_i2_max",
            "p_cond_reg",
        ]
        by_t = {round(float(r[0]), 3): r[1:] for r in rows}
        row = [float(x) for x in by_t[0.5]]
        assert 0.0 < row[0] < 1.5
        assert row[3] == pytest.approx(0.6540, abs=5e-4)

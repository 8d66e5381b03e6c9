import json

import numpy as np
import pytest

from slenderquad import cli
from slenderquad.cli import (
    EXIT_CONFIG,
    EXIT_ORACLE,
    EXIT_PASS,
    EXIT_THRESHOLD,
    ConfigError,
    _build_parser,
    helix_field_grid,
    main,
    parse_fiber,
    run_field_test,
)
from slenderquad.finitepart import MAX_TABLE_ORDER
from slenderquad.geometry import make_helix
from slenderquad.oracle import AccuracyError
from slenderquad.quadcore import interpolate_to_uniform


class TestParseFiber:
    def test_helix(self):
        curve = parse_fiber("helix:8,3,1.5")
        assert curve.kind == "helix"
        assert curve.length == 1.5

    def test_straight_short_form(self):
        curve = parse_fiber("straight:2.0")
        assert curve.kind == "straight"
        assert curve.position(1.0) == pytest.approx([1.0, 0.0, 0.0], abs=0)

    def test_straight_with_direction(self):
        curve = parse_fiber("straight:0,0,2,1.5")
        assert curve.position(1.0) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_bad_specs(self):
        for spec in ("helix:1,2", "ellipse:1,2,3", "helix:a,b,c", "straight:1,2"):
            with pytest.raises(ValueError):
                parse_fiber(spec)

    @pytest.mark.parametrize(
        "spec", ["straight:0,0,0,1", "straight:nan,0,0,1", "straight:inf,0,0,1"]
    )
    def test_zero_or_nonfinite_direction(self, spec):
        with pytest.raises(ConfigError, match="finite and nonzero"):
            parse_fiber(spec)


def _grid(radial_count, angular_count, z_count, curve=make_helix(8.0, 3.0, 1.5)):
    return helix_field_grid(
        curve,
        radial_count=radial_count,
        angular_count=angular_count,
        z_count=z_count,
    )


class TestHelixFieldGrid:
    def test_counts_and_bounds(self):
        pts = _grid(4, 3, 2)
        assert pts.shape == (24, 3)
        radius = 8.0 / 73.0
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert r.max() <= radius - 2.2e-3 + 1e-15
        assert r.min() > 0.0

    def test_quarter_circle_angles(self):
        pts = _grid(1, 5, 1)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        assert angles.min() == pytest.approx(0.0, abs=1e-15)
        assert angles.max() == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "counts, extra",
        [
            ((0, 3, 2), {}),
            ((4, 0, 2), {}),
            ((4, 3, 0), {}),
            # projected circle of radius 2e-3: FIELD_MIN_DISTANCE short of it is below zero
            ((4, 3, 2), {"curve": make_helix(500.0, 0.0, 1.0)}),
        ],
    )
    def test_rejects_empty_grid_and_nonpositive_distance(self, counts, extra):
        with pytest.raises(ConfigError):
            _grid(*counts, **extra)


class TestEigenTestCommand:
    def test_pass_and_csv(self, tmp_path):
        out = tmp_path / "eigen.csv"
        code = main(
            [
                "eigen-test",
                "--panels",
                "1,2,4,8",
                "--force",
                "legendre:5",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_PASS
        lines = out.read_text().splitlines()
        assert lines[0] == "M,max_error"
        assert len(lines) == 5
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(errors) <= 1e-12
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["config"]["seed"] == 7
        assert len(sidecar["alpha"]) == 5

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["eigen-test", "--seed", "3", "--out", str(out)]) == EXIT_PASS
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_config_holds_this_subcommands_flags(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["eigen-test", "--out", str(out)]) == EXIT_PASS
        config = json.loads(out.with_suffix(".json").read_text())["config"]
        assert config == {
            "experiment": "eigen-test",
            "panels": [1, 2, 4, 8],
            "rule_order": 16,
            "force": "legendre:5",
            "seed": 42,
            "out": str(out),
        }

    def test_constant_mode_is_exact(self, tmp_path):
        out = tmp_path / "p1.csv"
        code = main(["eigen-test", "--force", "legendre:1", "--panels", "2", "--out", str(out)])
        assert code == EXIT_PASS
        err = float(out.read_text().splitlines()[1].split(",")[1])
        assert err <= 1e-14

    def test_config_errors(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["eigen-test", "--force", "testf", "--out", out]) == EXIT_CONFIG
        assert main(["eigen-test", "--force", "legendre:40", "--out", out]) == EXIT_CONFIG
        assert main(["eigen-test", "--force", "legendre:x", "--out", out]) == EXIT_CONFIG
        assert main(["eigen-test", "--panels", "0", "--out", out]) == EXIT_CONFIG
        assert main(["eigen-test", "--panels", "1,x", "--out", out]) == EXIT_CONFIG
        assert main(["bogus-experiment"]) == EXIT_CONFIG
        # eigen-test's scalar operator has no curve
        assert main(["eigen-test", "--fiber", "straight:1.0", "--out", out]) == EXIT_CONFIG

    @pytest.mark.parametrize("order", [0, 65])
    def test_bad_rule_order_is_blamed_on_the_order(self, tmp_path, capsys, order):
        argv = ["eigen-test", "--rule-order", str(order), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: order must be an integer in [1, 64], got {order}\n"
        )


class TestKConvergenceCommand:
    def test_small_study(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "k-convergence",
                "--panels",
                "4,8,16",
                "--reference-panels",
                "32",
                "--uniform-count",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_PASS
        lines = out.read_text().splitlines()
        assert lines[0] == "M,e_M"
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert errors[0] > errors[1] > errors[2]
        # doubling panels in the pre-asymptotic range gains at least 10x
        assert errors[0] / errors[1] >= 10.0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["errors"] == errors
        assert sidecar["config"] == {
            "experiment": "k-convergence",
            "panels": [4, 8, 16],
            "rule_order": 16,
            "force": "testf",
            "fiber": "helix:8,3,1.5",
            "reference_panels": 32,
            "uniform_count": 100,
            "out": str(out),
        }

    def test_threshold_failure_exit(self, tmp_path):
        # a 2-panel study against a barely finer reference cannot reach the plateau
        out = tmp_path / "fail.csv"
        code = main(
            [
                "k-convergence",
                "--panels",
                "2",
                "--reference-panels",
                "4",
                "--uniform-count",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_THRESHOLD

    def test_straight_fiber_variant(self, tmp_path):
        out = tmp_path / "straight.csv"
        code = main(
            [
                "k-convergence",
                "--fiber",
                "straight:1.0",
                "--panels",
                "4,8",
                "--reference-panels",
                "16",
                "--uniform-count",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_PASS
        errors = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert errors[0] > errors[1]

    @pytest.mark.parametrize(
        "panels, reference", [("4,8", "6"), ("4,8", "8"), ("4,16", "16")], ids=["below", "equal", "equal-last"]
    )
    def test_bad_reference(self, tmp_path, capsys, panels, reference):
        # a reference equal to a tested count compares that count's K with itself: e_M = 0
        out = tmp_path / "x.csv"
        argv = ["k-convergence", "--force", "testf-simple", "--panels", panels]
        code = main([*argv, "--reference-panels", reference, "--uniform-count", "40", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"--reference-panels must exceed every tested panel count, got {reference}" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["helix:8,nan,1.5", "helix:8,3,inf", "straight:inf"])
    def test_nonfinite_fiber_is_a_config_error(self, tmp_path, capsys, spec):
        out = tmp_path / "x.csv"
        assert main(["k-convergence", "--fiber", spec, "--out", str(out)]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_direction_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["k-convergence", "--fiber", "straight:0,0,0,1", "--panels", "2"]
        assert main([*argv, "--reference-panels", "4", "--out", str(out)]) == EXIT_CONFIG
        assert "finite and nonzero" in capsys.readouterr().err
        assert not out.exists()

    def test_force_must_be_testf_or_testf_simple(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["k-convergence", "--force", "legendre:3", "--out", str(out)]) == EXIT_CONFIG
        assert "k-convergence supports --force testf or testf-simple" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_bad_uniform_count(self, tmp_path, capsys, count):
        out = tmp_path / "x.csv"
        argv = ["k-convergence", "--panels", "4", "--reference-panels", "8"]
        assert main([*argv, "--uniform-count", count, "--out", str(out)]) == EXIT_CONFIG
        assert "--uniform-count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("panels", ["8,8", "16,8", "4,16,8"])
    def test_panels_must_increase_strictly(self, tmp_path, capsys, panels):
        # equal or unsorted counts would make the monotonic check compare the wrong pairs
        out = tmp_path / "x.csv"
        argv = ["k-convergence", "--panels", panels, "--reference-panels", "16"]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"--panels must increase strictly, got [{panels.replace(',', ', ')}]" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_last_uniform_target_is_the_fiber_length(self, tmp_path, monkeypatch):
        # 3 * 0.1 / 3 rounds to 0.10000000000000002, past the end of a fiber of length 0.1
        seen = []

        def recording(values, grid, targets):
            seen.append(targets)
            return interpolate_to_uniform(values, grid, targets)

        monkeypatch.setattr(cli, "interpolate_to_uniform", recording)
        out = tmp_path / "short.csv"
        argv = ["k-convergence", "--fiber", "helix:8,3,0.1", "--force", "testf-simple"]
        argv += ["--panels", "4,8", "--reference-panels", "16", "--uniform-count", "3"]
        assert main([*argv, "--out", str(out)]) == EXIT_PASS
        assert all(t[-1] == 0.1 and np.all(np.diff(t) > 0) for t in seen)


class TestFieldTestCommand:
    def test_tiny_grid_both_modes(self, tmp_path):
        out = tmp_path / "field.csv"
        code = main(
            [
                "field-test",
                "--panels",
                "8",
                "--radial-count",
                "3",
                "--angular-count",
                "3",
                "--z-count",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_PASS
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,M,x,y,z,error"
        assert len(lines) == 1 + 2 * 18  # both modes over 3*3*2 points
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["flagged_points"] == 0
        assert sidecar["global_max"]["special:M=8"] <= 1e-8
        # field-test always runs testf-simple, so its config has no force
        assert sidecar["config"] == {
            "experiment": "field-test",
            "panels": [8],
            "rule_order": 16,
            "fiber": "helix:8,3,1.5",
            "radial_count": 3,
            "angular_count": 3,
            "z_count": 2,
            "out": str(out),
        }
        xy = out.with_name("field_xy.csv")
        column_max = {}
        for line in lines[1:]:
            mode, m, x, y, _z, e = line.split(",")
            column_max[(mode, m, x, y)] = max(column_max.get((mode, m, x, y), -1.0), float(e))
        xy_lines = xy.read_text().splitlines()
        assert xy_lines[0] == "mode,M,x,y,max_error"
        assert [line.rsplit(",", 1)[0] for line in xy_lines[1:]] == [
            ",".join(key) for key in column_max
        ]
        assert [float(line.rsplit(",", 1)[1]) for line in xy_lines[1:]] == list(
            column_max.values()
        )

    def test_nan_error_reaches_the_xy_csv_and_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "reference_S", lambda curve, f, points, tol: np.zeros(np.shape(points)))
        calls = []

        def eval_S_nan_at_second_point(curve, density, points):
            calls.append(np.shape(points))
            values = np.ones(np.shape(points))
            values[1] = np.nan
            return values

        monkeypatch.setattr(cli, "eval_S", eval_S_nan_at_second_point)
        out = tmp_path / "field.csv"
        argv = ["field-test", "--radial-count", "2", "--angular-count", "2", "--z-count", "2"]
        assert main([*argv, "--out", str(out)]) == EXIT_THRESHOLD
        assert calls == [(8, 3)]  # one block call for the one panel count
        special = [
            line.split(",")[-1]
            for line in out.with_name("field_xy.csv").read_text().splitlines()
            if line.startswith("special")
        ]
        # the second point is the top of the first (x, y) column
        assert special == ["nan", "1.7320508075688772", "1.7320508075688772", "1.7320508075688772"]

    @pytest.mark.parametrize("flagged", [[7], [3, 7], range(8)], ids=["last", "two", "all"])
    def test_oracle_flags_exit_3_and_leave_the_global_max(self, tmp_path, monkeypatch, capsys,
                                                          flagged):
        failed = np.zeros(8, dtype=bool)
        failed[list(flagged)] = True

        def uncertified(curve, f, points, tol):
            raise AccuracyError("tolerance not met", np.zeros(np.shape(points)), np.ones(8), failed)

        # point i errs by i + 1 in both modes, so the global max is the last unflagged point's
        errors = np.arange(1.0, 9.0)
        monkeypatch.setattr(cli, "reference_S", uncertified)
        for name in ("eval_S", "eval_S_regular"):
            monkeypatch.setattr(cli, name, lambda curve, f, points: errors[:, None] * [1, 0, 0])
        out = tmp_path / "field.csv"
        argv = ["field-test", "--radial-count", "2", "--angular-count", "2", "--z-count", "2"]
        assert main([*argv, "--out", str(out)]) == EXIT_ORACLE
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["flagged_points"] == failed.sum() and sidecar["point_count"] == 8
        expected = np.max(errors[~failed]) if not failed.all() else np.nan
        runs = ["regular:M=8", "special:M=8"]
        assert sidecar["global_max"] == pytest.approx(dict.fromkeys(runs, expected), nan_ok=True)
        assert capsys.readouterr().out.splitlines() == [
            f"field-test {run}: global max error {expected:.3e}" for run in runs
        ]
        # a flagged point keeps its rows in the CSV
        assert len(out.read_text().splitlines()) == 1 + 2 * 8

    def test_requires_helix(self, tmp_path):
        code = main(
            [
                "field-test",
                "--fiber",
                "straight:1.0",
                "--radial-count",
                "2",
                "--angular-count",
                "2",
                "--z-count",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_seed_is_a_usage_error(self, tmp_path, monkeypatch):
        def oracle_must_not_run(*args, **kwargs):
            raise AssertionError("oracle ran for a rejected command line")

        monkeypatch.setattr(cli, "reference_S", oracle_must_not_run)
        out = tmp_path / "x.csv"
        assert main(["field-test", "--seed", "5", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_mode(self, tmp_path):
        # field-test always runs both modes, so it takes no --modes flag
        code = main(
            ["field-test", "--modes", "regular", "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag",
        [["--min-distance", "1e-3"], ["--inner-radius", "0.01"], ["--full-circle"],
         ["--force", "testf-simple"], ["--force", "testf"]],
    )
    def test_fixed_grid_flags_are_usage_errors(self, tmp_path, monkeypatch, flag):
        def oracle_must_not_run(*args, **kwargs):
            raise AssertionError("oracle ran for a rejected command line")

        monkeypatch.setattr(cli, "reference_S", oracle_must_not_run)
        out = tmp_path / "x.csv"
        assert main(["field-test", *flag, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_special_mode_rejects_rule_order_before_oracle(self, tmp_path, monkeypatch):
        def oracle_must_not_run(*args, **kwargs):
            raise AssertionError("oracle ran before the rule order was checked")

        monkeypatch.setattr(cli, "reference_S", oracle_must_not_run)
        argv = ["field-test", "--rule-order", "20", "--out", str(tmp_path / "x.csv")]
        with pytest.raises(ConfigError, match=r"up to 16, got 20"):
            run_field_test(_build_parser().parse_args(argv))
        assert main(argv) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [["eigen-test", "--rule-order", "40"], ["eigen-test", "--rule-order", "48"],
     ["k-convergence", "--rule-order", "40"]],
)
def test_rule_order_above_the_table_limit_exits_before_K_or_L(tmp_path, monkeypatch, capsys,
                                                               argv):
    def must_not_run(*args):
        raise AssertionError("K or L ran at a rule order the weight table refuses")

    monkeypatch.setattr(cli, "eval_L", must_not_run)
    monkeypatch.setattr(cli, "eval_K_all", must_not_run)
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert f"rule orders up to {MAX_TABLE_ORDER}, got {argv[2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["eigen-test", "k-convergence", "field-test"])
def test_out_in_missing_directory_exits_before_any_computation(tmp_path, monkeypatch, capsys,
                                                                experiment):
    def must_not_run(args):
        raise AssertionError("experiment ran with an unwritable --out")

    monkeypatch.setitem(cli._RUNNERS, experiment, must_not_run)
    out = str(tmp_path / "missing" / "x.csv")
    assert main([experiment, "--out", out]) == EXIT_CONFIG
    want = f"error: --out must name a file in an existing directory, got {out!r}\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("experiment", ["eigen-test", "k-convergence", "field-test"])
@pytest.mark.parametrize(
    "name, want",
    [("", "--out must name a file in an existing directory"),
     ("x.json", "--out must not end in .json, the sidecar's suffix")],
    ids=["existing-directory", "sidecar-suffix"],
)
def test_out_that_the_run_cannot_write_exits_before_any_computation(tmp_path, monkeypatch, capsys,
                                                                    experiment, name, want):
    # a directory failed with IsADirectoryError after the whole run, and a .json out was
    # overwritten by its own sidecar
    def must_not_run(args):
        raise AssertionError("experiment ran with an --out it cannot write")

    monkeypatch.setitem(cli._RUNNERS, experiment, must_not_run)
    out = str(tmp_path / name) if name else str(tmp_path)
    assert main([experiment, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {want}, got {out!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "experiment, beside",
    [("eigen-test", "x.json"), ("k-convergence", "x.json"), ("field-test", "x.json"),
     ("field-test", "x_xy.csv")],
)
def test_a_directory_where_the_run_writes_beside_out_exits_before_any_computation(
    tmp_path, monkeypatch, capsys, experiment, beside
):
    # the run did all its work, wrote the CSV and died with IsADirectoryError on the sidecar
    # or on field-test's <stem>_xy<suffix> file
    def must_not_run(args):
        raise AssertionError("experiment ran with a directory where it writes")

    monkeypatch.setitem(cli._RUNNERS, experiment, must_not_run)
    (tmp_path / beside).mkdir()
    out = tmp_path / "x.csv"
    assert main([experiment, "--out", str(out)]) == EXIT_CONFIG
    want = f"error: --out {str(out)!r} would write {str(tmp_path / beside)!r}, a directory\n"
    assert capsys.readouterr().err == want
    assert [p.name for p in tmp_path.iterdir()] == [beside]

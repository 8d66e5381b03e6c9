"""Command-line experiment runner.

Three experiments reproduce the library's validation studies: the scalar
operator against its Legendre diagonalization, the K operator's uniform-grid
self-convergence on a helix, and the field-point Stokeslet errors against the
adaptive reference. Results land in a CSV plus a JSON sidecar holding the
fully resolved configuration.

Exit codes: 0 pass, 1 configuration error, 2 threshold failure, 3 oracle
failure at one or more points.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import forces
from .finitepart import LineDensity, build_weight_table, eval_L
from .geometry import FiberCurve, discretize, make_helix, make_straight
from .nearsing import MAX_MOMENT_COUNT, NearEvalConfig, eval_S, eval_S_regular
from .oracle import (
    AccuracyError,
    convergence_study,
    diagonal_eigenvalues,
    reference_S,
    scaled_legendre,
)
from .quadcore import gauss_legendre, panelize

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2
EXIT_ORACLE = 3

EIGEN_THRESHOLD = 1e-12
KCONV_FINAL_THRESHOLD = 1e-10
KCONV_PLATEAU = 1e-11
FIELD_SPECIAL_THRESHOLD = 1e-8


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class FieldGridSpec:
    """Polar evaluation grid inside the projected circle of a helix."""

    radial_count: int = 20
    angular_count: int = 20
    z_count: int = 16
    quarter_circle: bool = True
    min_boundary_distance: float = 2.2e-3
    inner_radius: float | None = None  # defaults to R/20 of the projected circle

    def __post_init__(self):
        if min(self.radial_count, self.angular_count, self.z_count) < 1:
            raise ConfigError("grid counts must be positive")
        if not self.min_boundary_distance > 0:
            raise ConfigError("min boundary distance must be positive")


@dataclass
class ExperimentConfig:
    experiment: str
    panels: list[int] = field(default_factory=lambda: [16])
    rule_order: int = 16
    fiber: str = "helix:8,3,1.5"
    force: str = "testf"
    seed: int = 42
    output_path: str = "results.csv"
    reference_panels: int = 128
    uniform_count: int = 400
    modes: list[str] = field(default_factory=lambda: ["regular", "special"])
    grid: FieldGridSpec = field(default_factory=FieldGridSpec)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_fiber(spec: str) -> FiberCurve:
    kind, _, rest = spec.partition(":")
    try:
        params = [float(v) for v in rest.split(",")] if rest else []
    except ValueError as err:
        raise ConfigError(f"bad fiber spec {spec!r}: {err}") from None
    if kind == "helix":
        if len(params) != 3:
            raise ConfigError("helix fiber needs curvature,torsion,length")
        return make_helix(*params)
    if kind == "straight":
        if len(params) == 1:
            return make_straight((1.0, 0.0, 0.0), params[0])
        if len(params) == 4:
            d = np.asarray(params[:3])
            return make_straight(d / np.linalg.norm(d), params[3])
        raise ConfigError("straight fiber needs length or dx,dy,dz,length")
    raise ConfigError(f"unknown fiber kind {kind!r}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_sidecar(path: Path, config: ExperimentConfig, extra: dict) -> None:
    payload = {"config": asdict(config), **extra}
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_eigen_test(config: ExperimentConfig) -> int:
    """Scalar-operator errors against the Legendre diagonalization, per panel count."""
    kind, _, rest = config.force.partition(":")
    if kind != "legendre":
        raise ConfigError("eigen-test requires --force legendre:P")
    try:
        p = int(rest)
    except ValueError:
        raise ConfigError(f"bad mode count in {config.force!r}") from None
    if not 1 <= p <= config.rule_order:
        raise ConfigError(f"mode count must be in [1, {config.rule_order}]")

    fiber_length = 1.0
    alpha = forces.splitmix64_uniforms(config.seed, p)
    f, fprime = forces.legendre_mixture(alpha, fiber_length)
    lam = diagonal_eigenvalues(p)
    rule = gauss_legendre(config.rule_order)
    table = build_weight_table(rule)

    rows = []
    worst = 0.0
    for m in config.panels:
        grid = panelize(fiber_length, m, rule)
        density = LineDensity.from_closure(f, grid, derivative=fprime)
        s = grid.global_nodes
        exact = -sum(alpha[n] * lam[n] * scaled_legendre(n, s, fiber_length) for n in range(p))
        got = np.array([eval_L(density, grid, table, t) for t in range(grid.node_count)])
        err = float(np.max(np.abs(got - exact)))
        worst = max(worst, err)
        rows.append([m, err])

    path = Path(config.output_path)
    _write_csv(path, ["M", "max_error"], rows)
    _write_sidecar(path, config, {"alpha": list(alpha), "max_error": worst})
    print(f"eigen-test: worst max error {worst:.3e} over M={config.panels}")
    return EXIT_PASS if worst <= EIGEN_THRESHOLD else EXIT_THRESHOLD


def run_k_convergence(config: ExperimentConfig) -> int:
    """Self-convergence e_M of K on a uniform comparison grid."""
    curve = parse_fiber(config.fiber)
    if config.force == "testf":
        f, _ = forces.testf(curve.length)
    elif config.force == "testf-simple":
        f, _ = forces.testf_simple(curve)
    else:
        raise ConfigError("k-convergence supports --force testf or testf-simple")
    if config.reference_panels < max(config.panels):
        raise ConfigError("--reference-panels must not be below any tested panel count")
    if config.uniform_count < 1:
        raise ConfigError(f"--uniform-count must be >= 1, got {config.uniform_count}")

    rule = gauss_legendre(config.rule_order)
    table = build_weight_table(rule)
    study = convergence_study(
        curve,
        f,
        config.panels,
        config.reference_panels,
        config.uniform_count,
        rule,
        table,
    )
    rows = [[m, float(e)] for m, e in zip(study.panel_counts, study.errors)]
    path = Path(config.output_path)
    _write_csv(path, ["M", "e_M"], rows)
    _write_sidecar(path, config, {"errors": [float(e) for e in study.errors]})

    errs = study.errors
    decreasing = all(
        errs[i + 1] < errs[i]
        for i in range(len(errs) - 1)
        if errs[i] > KCONV_PLATEAU and errs[i + 1] > KCONV_PLATEAU
    )
    final_ok = float(np.min(errs)) <= KCONV_FINAL_THRESHOLD
    print(f"k-convergence: e_M = {[f'{e:.3e}' for e in errs]}")
    return EXIT_PASS if decreasing and final_ok else EXIT_THRESHOLD


def helix_field_grid(curve: FiberCurve, spec: FieldGridSpec) -> np.ndarray:
    """Evaluation points in polar rings inside the projected circle of a helix.

    Radii close up to min_boundary_distance short of the circle; z-values
    span one helix period centered at the fiber's mid-height.
    """
    if curve.kind != "helix":
        raise ConfigError("field grid requires a helix fiber")
    kappa = curve.parameters["curvature"]
    tau = curve.parameters["torsion"]
    k2t2 = kappa**2 + tau**2
    radius = kappa / k2t2
    pitch = 2.0 * np.pi * tau / k2t2
    r_inner = spec.inner_radius if spec.inner_radius is not None else radius / 20.0
    r_outer = radius - spec.min_boundary_distance
    if not 0 < r_inner < r_outer:
        raise ConfigError("inner radius must lie inside the projected circle")
    radii = np.linspace(r_inner, r_outer, spec.radial_count)
    span = np.pi / 2.0 if spec.quarter_circle else 2.0 * np.pi
    angles = np.linspace(0.0, span, spec.angular_count)
    z_mid = 0.5 * curve.position(curve.length)[2]
    if pitch != 0:
        half = abs(pitch) / 2.0
        z_vals = z_mid + np.linspace(-half, half, spec.z_count)
    else:
        z_vals = np.full(spec.z_count, z_mid)
    pts = [
        (r * np.cos(t), r * np.sin(t), z)
        for r in radii
        for t in angles
        for z in z_vals
    ]
    return np.asarray(pts)


def run_field_test(config: ExperimentConfig) -> int:
    """Stokeslet field errors against the adaptive reference, per mode and panel count."""
    curve = parse_fiber(config.fiber)
    if config.force == "testf-simple":
        f, _ = forces.testf_simple(curve)
    elif config.force == "testf":
        f, _ = forces.testf(curve.length)
    else:
        raise ConfigError("field-test supports --force testf-simple or testf")
    bad_modes = set(config.modes) - {"regular", "special"}
    if bad_modes:
        raise ConfigError(f"unknown modes {sorted(bad_modes)}")
    if "special" in config.modes and config.rule_order > MAX_MOMENT_COUNT:
        raise ConfigError(
            f"special mode supports --rule-order up to {MAX_MOMENT_COUNT}, got {config.rule_order}"
        )

    points = helix_field_grid(curve, config.grid)
    rule = gauss_legendre(config.rule_order)
    cfg = NearEvalConfig()

    reference = np.empty((len(points), 3))
    flagged = np.zeros(len(points), dtype=bool)
    for i, pt in enumerate(points):
        try:
            reference[i] = reference_S(curve, f, pt, tol=1e-12)
        except AccuracyError as err:
            reference[i] = err.best_estimate
            flagged[i] = True

    rows = []
    max_by_run: dict[str, float] = {}
    for m in config.panels:
        pcurve = discretize(curve, m, rule)
        density = LineDensity.from_closure(f, pcurve.grid)
        for mode in config.modes:
            errs = np.empty(len(points))
            for i, pt in enumerate(points):
                value = (
                    eval_S(pcurve, density, pt, cfg)
                    if mode == "special"
                    else eval_S_regular(pcurve, density, pt)
                )
                errs[i] = np.linalg.norm(value - reference[i])
                rows.append(
                    [mode, m, float(pt[0]), float(pt[1]), float(pt[2]), float(errs[i])]
                )
            max_by_run[f"{mode}:M={m}"] = float(np.max(errs[~flagged])) if (~flagged).any() else np.nan

    path = Path(config.output_path)
    _write_csv(path, ["mode", "M", "x", "y", "z", "error"], rows)

    # max over z per (x, y) column, per run
    xy = {}
    for mode, m, x, y, _z, e in rows:
        key = (mode, m, x, y)
        xy[key] = max(xy.get(key, 0.0), e)
    xy_rows = [[mode, m, x, y, e] for (mode, m, x, y), e in xy.items()]
    _write_csv(path.with_name(path.stem + "_xy" + path.suffix), ["mode", "M", "x", "y", "max_error"], xy_rows)
    _write_sidecar(
        path,
        config,
        {
            "global_max": max_by_run,
            "flagged_points": int(flagged.sum()),
            "point_count": len(points),
        },
    )
    for run, e in max_by_run.items():
        print(f"field-test {run}: global max error {e:.3e}")

    if flagged.any():
        return EXIT_ORACLE
    if "special" in config.modes and config.force == "testf-simple":
        special_max = max(v for k, v in max_by_run.items() if k.startswith("special"))
        if special_max > FIELD_SPECIAL_THRESHOLD:
            return EXIT_THRESHOLD
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slenderquad", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p):
        p.add_argument("--panels", default=None, help="comma-separated panel counts")
        p.add_argument("--rule-order", type=int, default=16)
        p.add_argument("--fiber", default="helix:8,3,1.5")
        p.add_argument("--force", default=None)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default="results.csv")

    p_eigen = sub.add_parser("eigen-test", help="scalar operator vs diagonalization")
    common(p_eigen)

    p_conv = sub.add_parser("k-convergence", help="uniform-grid self-convergence of K")
    common(p_conv)
    p_conv.add_argument("--reference-panels", type=int, default=128)
    p_conv.add_argument("--uniform-count", type=int, default=400)

    p_field = sub.add_parser("field-test", help="Stokeslet field errors vs reference")
    common(p_field)
    p_field.add_argument("--modes", default="regular,special")
    p_field.add_argument("--radial-count", type=int, default=20)
    p_field.add_argument("--angular-count", type=int, default=20)
    p_field.add_argument("--z-count", type=int, default=16)
    p_field.add_argument("--min-distance", type=float, default=2.2e-3)
    p_field.add_argument("--inner-radius", type=float, default=None)
    p_field.add_argument("--full-circle", action="store_true")
    return parser


_DEFAULT_PANELS = {
    "eigen-test": [1, 2, 4, 8],
    "k-convergence": [4, 8, 16, 32, 64],
    "field-test": [8],
}
_DEFAULT_FORCE = {
    "eigen-test": "legendre:5",
    "k-convergence": "testf",
    "field-test": "testf-simple",
}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    try:
        panels = (
            [int(v) for v in args.panels.split(",")]
            if args.panels
            else _DEFAULT_PANELS[args.experiment]
        )
    except ValueError as err:
        raise ConfigError(f"bad --panels: {err}") from None
    if any(m < 1 for m in panels):
        raise ConfigError("panel counts must be >= 1")
    config = ExperimentConfig(
        experiment=args.experiment,
        panels=panels,
        rule_order=args.rule_order,
        fiber=args.fiber,
        force=args.force or _DEFAULT_FORCE[args.experiment],
        seed=args.seed,
        output_path=args.out,
    )
    if args.experiment == "k-convergence":
        config.reference_panels = args.reference_panels
        config.uniform_count = args.uniform_count
    if args.experiment == "field-test":
        config.modes = args.modes.split(",")
        config.grid = FieldGridSpec(
            radial_count=args.radial_count,
            angular_count=args.angular_count,
            z_count=args.z_count,
            quarter_circle=not args.full_circle,
            min_boundary_distance=args.min_distance,
            inner_radius=args.inner_radius,
        )
    return config


_RUNNERS = {
    "eigen-test": run_eigen_test,
    "k-convergence": run_k_convergence,
    "field-test": run_field_test,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_PASS if exc.code == 0 else EXIT_CONFIG
    try:
        config = _config_from_args(args)
        return _RUNNERS[args.experiment](config)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

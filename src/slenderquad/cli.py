"""Command-line experiment runner.

Three experiments reproduce the library's validation studies: the scalar
operator against its Legendre diagonalization, the K operator's uniform-grid
self-convergence on a helix, and the field-point Stokeslet errors against the
adaptive reference. Results land in a CSV plus a JSON sidecar whose config
block holds the flags of the subcommand that ran, defaults filled in.

Exit codes: 0 pass, 1 configuration error, 2 threshold failure, 3 oracle
failure at one or more points.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import forces
from .finitepart import LineDensity, build_weight_table, eval_K_all, eval_L
from .geometry import FiberCurve, discretize, make_helix, make_straight
from .nearsing import eval_S, eval_S_regular
from .oracle import AccuracyError, diagonal_eigenvalues, reference_S, scaled_legendre
from .quadcore import PanelGrid, gauss_legendre, interpolate_to_uniform

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2
EXIT_ORACLE = 3

EIGEN_THRESHOLD = 1e-12
KCONV_FINAL_THRESHOLD = 1e-10
KCONV_PLATEAU = 1e-11
FIELD_SPECIAL_THRESHOLD = 1e-8
FIELD_MIN_DISTANCE = 2.2e-3  # field grid's closest approach to the projected circle


class ConfigError(ValueError):
    """Invalid experiment configuration."""


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
            norm = np.linalg.norm(d)
            if not (np.isfinite(norm) and norm > 0):
                raise ConfigError(f"straight fiber direction must be finite and nonzero: {spec!r}")
            return make_straight(d / norm, params[3])
        raise ConfigError("straight fiber needs length or dx,dy,dz,length")
    raise ConfigError(f"unknown fiber kind {kind!r}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _xy_path(path: Path) -> Path:
    """field-test's per-(x, y) column maxima, next to its CSV."""
    return path.with_name(path.stem + "_xy" + path.suffix)


def _write_sidecar(path: Path, args: argparse.Namespace, extra: dict) -> None:
    payload = {"config": vars(args), **extra}
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_eigen_test(args: argparse.Namespace) -> int:
    """Scalar-operator errors against the Legendre diagonalization, per panel count."""
    kind, _, rest = args.force.partition(":")
    if kind != "legendre":
        raise ConfigError("eigen-test requires --force legendre:P")
    try:
        p = int(rest)
    except ValueError:
        raise ConfigError(f"bad mode count in {args.force!r}") from None
    rule = gauss_legendre(args.rule_order)  # rejects a bad order before it bounds p
    if not 1 <= p <= rule.order:
        raise ConfigError(f"mode count must be in [1, {rule.order}]")

    alpha = forces.splitmix64_uniforms(args.seed, p)
    f = forces.legendre_mixture(alpha, 1.0)[0]
    lam = diagonal_eigenvalues(p)
    table = build_weight_table(rule)

    rows = []
    worst = 0.0
    for m in args.panels:
        grid = PanelGrid(1.0, m, rule)
        s = grid.global_nodes
        density = LineDensity(f(s))
        exact = -sum(alpha[n] * lam[n] * scaled_legendre(n, s) for n in range(p))
        got = np.array([eval_L(density, grid, table, t) for t in range(grid.node_count)])
        err = float(np.max(np.abs(got - exact)))
        worst = max(worst, err)
        rows.append([m, err])

    path = Path(args.out)
    _write_csv(path, ["M", "max_error"], rows)
    _write_sidecar(path, args, {"alpha": list(alpha), "max_error": worst})
    print(f"eigen-test: worst max error {worst:.3e} over M={args.panels}")
    return EXIT_PASS if worst <= EIGEN_THRESHOLD else EXIT_THRESHOLD


def run_k_convergence(args: argparse.Namespace) -> int:
    """Self-convergence e_M of K on a uniform comparison grid.

    K on each panel count and on the finer --reference-panels discretization is
    interpolated to the uniform arclengths l*L/N_u, l = 0..N_u, the last one
    exactly L; e_M is the largest pointwise 2-norm of the difference.
    """
    curve = parse_fiber(args.fiber)
    if args.force not in ("testf", "testf-simple"):
        raise ConfigError("k-convergence supports --force testf or testf-simple")
    f = (forces.testf(curve.length) if args.force == "testf" else forces.testf_simple(curve))[0]
    if any(b <= a for a, b in zip(args.panels, args.panels[1:])):
        raise ConfigError(f"--panels must increase strictly, got {args.panels}")
    if args.reference_panels <= max(args.panels):  # an equal count would compare K with itself
        raise ConfigError("--reference-panels must exceed every tested panel count, got "
                          f"{args.reference_panels} for --panels {args.panels}")
    if args.uniform_count < 1:
        raise ConfigError(f"--uniform-count must be >= 1, got {args.uniform_count}")

    rule = gauss_legendre(args.rule_order)
    table = build_weight_table(rule)
    targets = np.arange(args.uniform_count + 1) * curve.length / args.uniform_count
    targets[-1] = curve.length  # l*L/N_u can round above L at l = N_u

    def k_on_uniform(m: int) -> np.ndarray:
        pcurve = discretize(curve, m, rule)
        values = eval_K_all(pcurve, LineDensity(f(pcurve.grid.global_nodes)), table)
        return interpolate_to_uniform(values, pcurve.grid, targets)

    reference = k_on_uniform(args.reference_panels)
    errs = [
        float(np.max(np.linalg.norm(k_on_uniform(m) - reference, axis=1))) for m in args.panels
    ]
    path = Path(args.out)
    _write_csv(path, ["M", "e_M"], [[m, e] for m, e in zip(args.panels, errs)])
    _write_sidecar(path, args, {"errors": errs})

    decreasing = all(
        errs[i + 1] < errs[i]
        for i in range(len(errs) - 1)
        if errs[i] > KCONV_PLATEAU and errs[i + 1] > KCONV_PLATEAU
    )
    final_ok = float(np.min(errs)) <= KCONV_FINAL_THRESHOLD
    print(f"k-convergence: e_M = {[f'{e:.3e}' for e in errs]}")
    return EXIT_PASS if decreasing and final_ok else EXIT_THRESHOLD


def helix_field_grid(
    curve: FiberCurve,
    *,
    radial_count: int,
    angular_count: int,
    z_count: int,
) -> np.ndarray:
    """Evaluation points in polar rings inside the projected circle of a helix.

    Radii run from R/20 of the circle's radius R up to FIELD_MIN_DISTANCE
    short of the circle, over a quarter circle; z-values span one helix
    period centered at the fiber's mid-height.
    """
    if min(radial_count, angular_count, z_count) < 1:
        raise ConfigError("grid counts must be positive")
    if curve.kind != "helix":
        raise ConfigError("field grid requires a helix fiber")
    radius = curve.parameters["radius"]
    pitch = curve.parameters["pitch"]
    r_inner = radius / 20.0
    r_outer = radius - FIELD_MIN_DISTANCE
    if not r_inner < r_outer:
        raise ConfigError(f"projected circle radius {radius:.3g} is too small for the field grid")
    radii = np.linspace(r_inner, r_outer, radial_count)
    angles = np.linspace(0.0, np.pi / 2.0, angular_count)
    z_mid = 0.5 * curve.position(curve.length)[2]
    half = abs(pitch) / 2.0  # zero pitch puts every z at z_mid
    z_vals = z_mid + np.linspace(-half, half, z_count)
    pts = [
        (r * np.cos(t), r * np.sin(t), z)
        for r in radii
        for t in angles
        for z in z_vals
    ]
    return np.asarray(pts)


def run_field_test(args: argparse.Namespace) -> int:
    """Stokeslet field errors against the adaptive reference, per mode and panel count."""
    curve = parse_fiber(args.fiber)
    f = forces.testf_simple(curve)[0]
    points = helix_field_grid(
        curve,
        radial_count=args.radial_count,
        angular_count=args.angular_count,
        z_count=args.z_count,
    )
    rule = gauss_legendre(args.rule_order)
    runs = []  # every run before the oracle, so eval_S rejects what it cannot do first
    for m in args.panels:
        pcurve = discretize(curve, m, rule)
        density = LineDensity(f(pcurve.grid.global_nodes))
        for mode, evaluate in (("regular", eval_S_regular), ("special", eval_S)):
            runs.append((mode, m, evaluate(pcurve, density, points)))

    try:
        reference = reference_S(curve, f, points, tol=1e-12)
        flagged = np.zeros(len(points), dtype=bool)
    except AccuracyError as err:
        reference, flagged = err.best_estimate, err.failed

    rows, xy_rows = [], []
    # the points run z fastest, so each (x, y) column is z_count consecutive points
    columns = points[:: args.z_count, :2]
    max_by_run: dict[str, float] = {}
    for mode, m, values in runs:
        d = values - reference
        # row norms with the bits of np.linalg.norm on each row, in one stacked product
        errs = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        rows.extend([mode, m, *map(float, pt), float(e)] for pt, e in zip(points, errs))
        max_by_run[f"{mode}:M={m}"] = float(np.max(errs[~flagged])) if (~flagged).any() else np.nan
        column_max = errs.reshape(len(columns), args.z_count).max(axis=1)
        xy_rows.extend(
            [mode, m, float(x), float(y), float(e)] for (x, y), e in zip(columns, column_max)
        )

    path = Path(args.out)
    _write_csv(path, ["mode", "M", "x", "y", "z", "error"], rows)
    _write_csv(_xy_path(path), ["mode", "M", "x", "y", "max_error"], xy_rows)
    extra = {"flagged_points": int(flagged.sum()), "point_count": len(points)}
    _write_sidecar(path, args, {"global_max": max_by_run, **extra})
    for run, e in max_by_run.items():
        print(f"field-test {run}: global max error {e:.3e}")

    if flagged.any():
        return EXIT_ORACLE
    special_max = np.max([v for k, v in max_by_run.items() if k.startswith("special")])
    if not special_max <= FIELD_SPECIAL_THRESHOLD:  # NaN fails too
        return EXIT_THRESHOLD
    return EXIT_PASS


def _panel_counts(text: str) -> list[int]:
    """Comma-separated panel counts, each at least 1."""
    try:
        counts = [int(v) for v in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if any(m < 1 for m in counts):
        raise argparse.ArgumentTypeError("panel counts must be >= 1")
    return counts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slenderquad", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)

    def experiment(name: str, help_text: str, panels: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--panels", type=_panel_counts, default=panels, help="comma-separated panel counts"
        )
        p.add_argument("--rule-order", type=int, default=16)
        p.add_argument("--out", default="results.csv")
        return p

    p_eigen = experiment("eigen-test", "scalar operator vs diagonalization", "1,2,4,8")
    p_eigen.add_argument("--force", default="legendre:5")
    p_eigen.add_argument("--seed", type=int, default=42)

    p_conv = experiment("k-convergence", "uniform-grid self-convergence of K", "4,8,16,32,64")
    p_conv.add_argument("--force", default="testf")
    p_conv.add_argument("--reference-panels", type=int, default=128)
    p_conv.add_argument("--uniform-count", type=int, default=400)

    p_field = experiment("field-test", "Stokeslet field errors vs reference", "8")
    # the scalar operator of eigen-test lives on [0, 1] with no curve
    for p in (p_conv, p_field):
        p.add_argument("--fiber", default="helix:8,3,1.5")
    p_field.add_argument("--radial-count", type=int, default=20)
    p_field.add_argument("--angular-count", type=int, default=20)
    p_field.add_argument("--z-count", type=int, default=16)
    return parser


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
        out = Path(args.out)  # every path the run writes is checked before any computation
        if out.is_dir() or not out.parent.is_dir():
            raise ConfigError(f"--out must name a file in an existing directory, got {args.out!r}")
        if out.suffix == ".json":
            raise ConfigError(f"--out must not end in .json, the sidecar's suffix, got {args.out!r}")
        written = [out.with_suffix(".json")]
        if args.experiment == "field-test":
            written.append(_xy_path(out))
        for path in written:
            if path.is_dir():
                raise ConfigError(f"--out {args.out!r} would write {str(path)!r}, a directory")
        return _RUNNERS[args.experiment](args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

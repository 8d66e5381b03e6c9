"""The three benchmark workloads: inputs from a seed, timed steps, output checks.

Every workload is single-process, single-thread and closed-loop: the next
operation starts only after the previous one returned. Each operation is one
or more steps; a step has a role:

- "main": the mechanism the workload exists to price,
- "bypass": the same kind of work with that mechanism left out, where an
  optimisation of the main mechanism should change nothing,
- "other": timed and checked, but reported by name only.

The library is driven through its public functions and `cli.main` only, and
it receives only the arrays generated here. References come from the
package's adaptive oracle and are computed outside every timed window.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

import slenderquad as sq
from slenderquad import cli, forces

HELIX = (8.0, 3.0, 1.5)  # curvature, torsion, length
RULE_ORDER = 16
K_BOUND = 1e-8  # acceptance criterion 4: K against reference_K


@dataclasses.dataclass(frozen=True)
class Step:
    """One timed call and the check of what it returned.

    check returns the step's error figure and whether it is within bound.
    """

    name: str
    role: str
    call: Callable[[], object]
    check: Callable[[object], tuple[float, bool]]


def _max_error(values: np.ndarray, refs: np.ndarray) -> float:
    """Largest pointwise 2-norm difference; inf when anything is not finite."""
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(np.max(np.linalg.norm(values - refs, axis=-1)))


class KOperator:
    """Many applies of K on one fixed geometry, as an iterative solve makes them.

    M = 64 panels of order 16 on helix(8, 3, 1.5), N = 1024 nodes. Every
    operation applies `eval_K_all` to one density from a seeded pool of
    vector Legendre mixtures. Main steps pass node samples only, the way a
    solver iterate arrives, so f' is re-derived spectrally per target in
    quadcore. Bypass steps pass the same samples with the analytic derivative
    attached, which skips that re-derivation.
    """

    name = "k_operator"
    setup_probes = 5

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        panels, pool, checks, modes = (8, 2, 1, 4) if tiny else (64, 4, 2, 8)
        length = HELIX[2]
        self.helix = sq.make_helix(*HELIX)
        rule = sq.gauss_legendre(RULE_ORDER)
        self.table = sq.build_weight_table(rule)
        self.curve = sq.discretize(self.helix, panels, rule)
        self.node_count = self.curve.grid.node_count
        nodes = self.curve.grid.global_nodes
        rng = np.random.default_rng(seed)
        # both end nodes, where K is least accurate, are checked for every density
        interior = np.arange(1, self.node_count - 1)
        self.pool = []
        for d in range(pool):
            parts = [
                forces.legendre_mixture(
                    forces.splitmix64_uniforms(seed * 1000 + 3 * d + c, modes), length
                )
                for c in range(3)
            ]

            def f(s, parts=parts):
                return np.stack([p[0](s) for p in parts], axis=-1)

            def fprime(s, parts=parts):
                return np.stack([p[1](s) for p in parts], axis=-1)

            samples = f(nodes)
            self.pool.append(
                {
                    "f": f,
                    "fprime": fprime,
                    "samples": sq.LineDensity(samples=samples),
                    "closure": sq.LineDensity(samples=samples, derivative=fprime),
                    "targets": np.concatenate(
                        [[0, self.node_count - 1], np.sort(rng.choice(interior, checks, replace=False))]
                    ),
                }
            )

    def references(self) -> None:
        nodes = self.curve.grid.global_nodes
        for entry in self.pool:
            entry["refs"] = np.array(
                [
                    sq.reference_K(self.helix, entry["f"], entry["fprime"], nodes[t], tol=1e-9)
                    for t in entry["targets"]
                ]
            )

    def steps(self, op: int) -> list[Step]:
        entry = self.pool[(op // 2) % len(self.pool)]
        main = op % 2 == 0
        density = entry["samples"] if main else entry["closure"]

        def check(out):
            if not np.all(np.isfinite(out)):
                return math.inf, False
            err = float(np.max(np.abs(out[entry["targets"]] - entry["refs"])))
            return err, err <= K_BOUND

        return [
            Step(
                "apply" if main else "apply_closure",
                "main" if main else "bypass",
                lambda: sq.eval_K_all(self.curve, density, self.table),
                check,
            )
        ]

    def named(self, summary: dict) -> dict:
        main = summary["main"]
        return {
            "k_nodes_per_s": (self.node_count / main["median_s"], "1/s"),
            "k_apply_tail_s": (main["tail_s"], "s"),
            "k_apply_tail_percentile": (main["tail_percentile"], "%"),
            "k_apply_samples": (main["samples"], "count"),
            "k_digits": (main["digits"], "digits"),
            "k_closure_nodes_per_s": (self.node_count / summary["bypass"]["median_s"], "1/s"),
            "k_closure_digits": (summary["bypass"]["digits"], "digits"),
        }


class SField:
    """Stokeslet S at batches of seeded field points, alternating near and far.

    M = 8 panels of order 16 on helix(8, 3, 1.5) with the testf-simple
    density. Near points sit log-uniformly 2.2e-3 to 2e-2 off an interior
    centerline point, so about two panels per point go through the root find,
    moments and Bjorck-Pereyra solve. Far points are at least 0.25 from every
    centerline point, beyond one panel width (0.1875), so every panel takes
    the regular path and the special machinery is bypassed.
    """

    name = "s_field"
    setup_probes = 5

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.batch, batches = (4, 1) if tiny else (64, 2)
        self.helix = sq.make_helix(*HELIX)
        length = self.helix.length
        rule = sq.gauss_legendre(RULE_ORDER)
        self.curve = sq.discretize(self.helix, 8, rule)
        self.f, _ = forces.testf_simple(self.helix)
        self.density = sq.LineDensity(samples=np.asarray(self.f(self.curve.grid.global_nodes)))
        rng = np.random.default_rng(seed)

        count = self.batch * batches

        def stratified(lo, hi):
            """One draw per equal stratum of [lo, hi] in every batch, shuffled.

            Batches then carry the same mix of positions and distances, so
            their costs differ little and a median does not depend on which
            batches a seed drew.
            """
            u = (rng.permuted(np.tile(np.arange(self.batch), (batches, 1)), axis=1)
                 + rng.uniform(size=(batches, self.batch))) / self.batch
            return (lo + (hi - lo) * u).ravel()

        s = stratified(0.05 * length, 0.95 * length)
        dist = np.exp(stratified(np.log(2.2e-3), np.log(2e-2)))
        angle = stratified(0.0, 2.0 * np.pi)
        tangent = self.helix.tangent(s)
        normal = self.helix.second_derivative(s)
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        binormal = np.cross(tangent, normal)
        offset = np.cos(angle)[:, None] * normal + np.sin(angle)[:, None] * binormal
        near = self.helix.position(s) + dist[:, None] * offset

        centerline = self.helix.position(np.linspace(0.0, length, 4001))
        lo = centerline.min(axis=0) - 0.5
        hi = centerline.max(axis=0) + 0.5
        far = []
        while len(far) < count:
            p = rng.uniform(lo, hi)
            if np.min(np.linalg.norm(centerline - p, axis=1)) >= 0.25:
                far.append(p)
        self.near = near.reshape(batches, self.batch, 3)
        self.far = np.asarray(far).reshape(batches, self.batch, 3)

    def references(self) -> None:
        self.near_refs, self.far_refs = (
            np.array([[sq.reference_S(self.helix, self.f, p, tol=1e-12) for p in b] for b in pts])
            for pts in (self.near, self.far)
        )

    def steps(self, op: int) -> list[Step]:
        main = op % 2 == 0
        k = (op // 2) % len(self.near)
        points = (self.near if main else self.far)[k]

        def call():
            return np.array([sq.eval_S(self.curve, self.density, p) for p in points])

        def check(out):
            err = _max_error(out, (self.near_refs if main else self.far_refs)[k])
            return err, err <= cli.FIELD_SPECIAL_THRESHOLD

        return [Step("near" if main else "far", "main" if main else "bypass", call, check)]

    def named(self, summary: dict) -> dict:
        main, bypass = summary["main"], summary["bypass"]
        return {
            "s_near_points_per_s": (self.batch / main["median_s"], "1/s"),
            "s_far_points_per_s": (self.batch / bypass["median_s"], "1/s"),
            "s_near_batch_tail_s": (main["tail_s"], "s"),
            "s_near_batch_tail_percentile": (main["tail_percentile"], "%"),
            "s_near_batch_samples": (main["samples"], "count"),
            "s_near_digits": (main["digits"], "digits"),
            "s_far_digits": (bypass["digits"], "digits"),
        }


class Experiments:
    """The three CLI experiments run in process through `cli.main`.

    field-test spends ~90 % of its time in the oracle; k-convergence
    re-discretises per panel count and applies K once per geometry, the
    opposite sharing pattern to k_operator, and never calls the oracle.
    k-convergence runs panel counts 4 to 32 against a 64-panel reference
    instead of its defaults (4 to 64 against 128): with the 2048-node
    reference its time divided by the speed kernel's spread by 12 to 19 %
    from run to run, against 7 % at this size.
    """

    name = "experiments"
    setup_probes = 3

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.dir = out_dir / f"experiments-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        kconv = (
            ["--force", "testf-simple", "--panels", "8,16", "--reference-panels", "24",
             "--uniform-count", "40"]
            if tiny
            else ["--panels", "4,8,16,32", "--reference-panels", "64"]
        )
        grid = ["2", "2", "2"] if tiny else ["5", "5", "4"]
        self.argv = {
            "eigen_test": ["eigen-test", "--seed", str(seed)],
            "k_convergence": ["k-convergence", *kconv],
            "field_test": [
                "field-test",
                "--radial-count", grid[0],
                "--angular-count", grid[1],
                "--z-count", grid[2],
            ],
        }

    def references(self) -> None:
        """The experiments carry their own oracle; nothing to precompute."""

    def _step(self, name: str, role: str) -> Step:
        csv = self.dir / f"{name}.csv"
        csv.unlink(missing_ok=True)  # so the check sees this run's file
        argv = [*self.argv[name], "--out", str(csv)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code):
            if code != cli.EXIT_PASS or not csv.exists():
                return math.inf, False
            sidecar = json.loads(csv.with_suffix(".json").read_text(encoding="utf-8"))
            if name == "eigen_test":
                return float(sidecar["max_error"]), True
            if name == "k_convergence":
                return float(min(sidecar["errors"])), True
            err = float(sidecar["global_max"]["special:M=8"])
            return err, sidecar["flagged_points"] == 0

        return Step(name, role, call, check)

    def steps(self, op: int) -> list[Step]:
        return [
            self._step("eigen_test", "other"),
            self._step("k_convergence", "bypass"),
            self._step("field_test", "main"),
        ]

    def named(self, summary: dict) -> dict:
        main, bypass, other = summary["main"], summary["bypass"], summary["other"]
        return {
            "eigen_test_s": (other["median_s"], "s"),
            "k_convergence_s": (bypass["median_s"], "s"),
            "field_test_s": (main["median_s"], "s"),
            "field_test_tail_s": (main["tail_s"], "s"),
            "field_test_samples": (main["samples"], "count"),
            "eigen_digits": (other["digits"], "digits"),
            "kconv_digits": (bypass["digits"], "digits"),
            "field_digits": (main["digits"], "digits"),
        }


WORKLOADS = {w.name: w for w in (KOperator, SField, Experiments)}

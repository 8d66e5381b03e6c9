"""The package's public surface: its exported names and the README's examples."""

import re
from pathlib import Path
from types import ModuleType

import slenderquad

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTS = {
    # finitepart
    "LineDensity", "SlenderParams", "build_weight_table", "centerline_velocity",
    "eval_K", "eval_K_all", "eval_L", "eval_Lambda",
    # geometry
    "FiberCurve", "PanelizedCurve", "discretize", "make_helix", "make_straight",
    # nearsing
    "eval_S", "eval_S_regular", "find_root", "qkp_moments",
    # oracle
    "AccuracyError", "adaptive_integrate", "diagonal_eigenvalues", "g_pair",
    "reference_K", "reference_S", "scaled_legendre",
    # quadcore
    "PanelGrid", "QuadratureRule", "gauss_legendre", "interpolate_to_uniform",
    "legendre_eval", "solve_vandermonde_transpose",
}  # fmt: skip


def test_exports_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(slenderquad).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(EXPORTS) == 30
    assert exported == EXPORTS


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})

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
    "eval_S", "eval_S_regular",
    # oracle
    "AccuracyError", "reference_K", "reference_S",
    # quadcore
    "PanelGrid", "QuadratureRule", "gauss_legendre",
}  # fmt: skip


def exported_names() -> set:
    return {
        name
        for name, value in vars(slenderquad).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }


def test_exports_exactly_the_public_names():
    assert len(EXPORTS) == 21
    assert exported_names() == EXPORTS


def test_readme_table_lists_exactly_the_exports():
    section = README.read_text().split("\n## Exported names\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` +\|", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == exported_names()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})

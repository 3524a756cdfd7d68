"""The bundled outputs are pinned byte for byte.

Refactors must keep the generated drawing JSON and the rendered SVGs of
the bundled instances identical.  The digests below are of ``gen``'s
drawing file; the SVGs are the committed ones under ``demos/out/``, which
``demos/05_render_gallery.py`` writes.
"""

import hashlib
import pathlib

import pytest

from minkplanar.cli import main
from minkplanar.constructions import build_G2, build_Gk
from minkplanar.layout import to_svg, tutte_layout

DEMO_OUT = pathlib.Path(__file__).resolve().parents[1] / "demos" / "out"


@pytest.mark.parametrize("argv, digest", [
    (["gen", "g2"],
     "30659a9279609b36f400197aaa9380859f93e32869052fe3bc176235f1d659f2"),
    (["gen", "gk", "--k", "4"],
     "8ddc56e4f49d59671faaefd9d994c7251ab4c8862f5f06d305963ea5b5175edd"),
])
def test_gen_drawing_json_is_pinned(tmp_path, argv, digest):
    prefix = tmp_path / "pack"
    report = tmp_path / "report.json"
    assert main(argv + ["--out", str(prefix), "--report", str(report)]) == 0
    data = (tmp_path / "pack.drawing.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name, build", [
    ("g2", build_G2),
    ("gk4", lambda: build_Gk(4)),
])
def test_svg_matches_committed_render(name, build):
    d = build().drawing
    svg = to_svg(d, tutte_layout(d), k=2)
    assert svg == (DEMO_OUT / f"{name}.svg").read_text()

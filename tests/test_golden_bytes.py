"""Pinned bytes of small viscosity runs and of the separating example.

The sha256 of `viscosity.json` and `violations.csv` for five CLI runs,
one per solution notion, that together produce 1-d sub and super probe
rows, terminal rows, 1-d constraint rows, 2-d constraint rows and
classical probe rows, whose margin is the minimum of the equation and the
obstacle gap; and of the three `reproduce-example` artifacts at the
default tolerance and at `--tol 8`.  A moved hash is a moved artifact:
the rows, their order or their formatting changed.
"""

from hashlib import sha256
from pathlib import Path

import pytest

from qvilab import cli

ROOT = Path(__file__).resolve().parent.parent
PROFILE = "(x1 - 1 + t)*exp(-(x1 - 1 + t))"

RUNS = {
    "transport-hjb-sub": (
        [str(ROOT / "configs" / "transport.cfg"), "--variant", "hjb-sub",
         "--analytic", "abs(x1)", "--grid-nt", "41", "--grid-nx", "71"],
        "8d705deea2a59227cfda7f37355a39d9088baaf7f243bbeaa4074129869109e8",
        "a0e14162a77d6196496b83907bcb75605e635cef2b4608ee13fd6d35acc05971"),
    "transport-hjb-super": (
        [str(ROOT / "configs" / "transport.cfg"), "--variant", "hjb-super",
         "--analytic=-abs(x1)", "--grid-nt", "41", "--grid-nx", "71"],
        "65e6ece0aebd92b6d7e8b1a1d696232d02252bfa8866d04dfb29a1639bbc0a1b",
        "732249c6da4b85e3c871820ee9755123e05685db041543ea829f7f2cdde80d5c"),
    "example-modified": (
        [str(ROOT / "configs" / "example.cfg"), "--variant",
         "qvi-super-modified", "--analytic", PROFILE,
         "--grid-nt", "41", "--grid-nx", "71"],
        "11be7b22cb175f5d4224c1a4c82d665ef2504962737ca592fda970cbaf5306a8",
        "2b33fd6de36e91ef7b93a65c3fe46f30416d44b26a8671b49d2c06e722415b59"),
    "plane-qvi-sub": (
        [str(ROOT / "perfbench" / "plane.cfg"), "--variant", "qvi-sub",
         "--analytic", "sin(x1) + cos(x2) + 0.5*(1-t)*x1"],
        "71f3647f794d9df7d2669dcf4f2a04b27a70d8ed777d0a24d6dde6ba4b4cf102",
        "caa2223942bb8a9060ce9e79651235365f3a48d97893538bc4b9520fca6c5273"),
    # a - p = 2 and N[V] - V = 0.05 both clear the tolerance everywhere
    "example-classical": (
        [str(ROOT / "configs" / "example.cfg"), "--variant",
         "qvi-super-classical", "--analytic", "2*t",
         "--grid-nt", "13", "--grid-nx", "15", "--tol", "0.05"],
        "fa1faa72df88b2b8f36675bacab18b48dbb9af86ce3246ccce078c7d6af8def4",
        "84d3ba9e8ab5b33530fb3c7bf8f0394ade23000640d1f68e7666b1a9f56f45d6"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_viscosity_artifacts_are_pinned(name, tmp_path):
    argv, report_hash, csv_hash = RUNS[name]
    assert cli.main(["viscosity", *argv, "--out", str(tmp_path)]) == 1
    digest = lambda f: sha256((tmp_path / f).read_bytes()).hexdigest()
    assert digest("viscosity.json") == report_hash
    assert digest("violations.csv") == csv_hash


# the verdicts, and so the bytes, are the same at both tolerances
EXAMPLE = {
    "anchor_slice.csv":
        "8d9c75f77abb0df965242b85faee8d3e2bdcabc3880a79e25d1c0b3a8aff04a7",
    "example.json":
        "cdf0976c5e45d3bec3207c7c9c5ca98d3d21671bf8c9e9666b9375931e51d6f5",
    "separation.json":
        "5daf77defcc2786142f33ca6a88e229407ab00ac44828f934b166029f0095770",
}


@pytest.mark.parametrize("tol", [[], ["--tol", "8"]], ids=["default", "tol8"])
def test_reproduce_example_artifacts_are_pinned(tol, tmp_path):
    assert cli.main(["reproduce-example", *tol, "--out", str(tmp_path)]) == 0
    for name, expected in EXAMPLE.items():
        assert sha256((tmp_path / name).read_bytes()).hexdigest() == expected

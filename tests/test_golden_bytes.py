"""Pinned bytes of small viscosity runs, of the separating example and
of the other commands on the shipped configs.

The sha256 of `viscosity.json` and `violations.csv` for five CLI runs,
one per solution notion, that together produce 1-d sub and super probe
rows, terminal rows, 1-d constraint rows, 2-d constraint rows and
classical probe rows, whose margin is the minimum of the equation and the
obstacle gap; of the two `reproduce-example` artifacts at the default
tolerance and at `--tol 8`; and of every artifact but `manifest.json` of
`solve`, `check`, `compare` and `doubling` runs.  A moved hash is a moved
artifact: the rows, their order or their formatting changed.  Every
JSON artifact of these runs, `manifest.json` included, must also parse as
strict JSON, with no NaN or Infinity.
"""

import json
from hashlib import sha256
from pathlib import Path

import pytest

from qvilab import cli

ROOT = Path(__file__).resolve().parent.parent
PROFILE = "(x1 - 1 + t)*exp(-(x1 - 1 + t))"


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def assert_strict_json(out):
    """Every .json file in `out` parses with NaN and Infinity refused."""
    paths = sorted(out.glob("*.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=_refuse)

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
    assert_strict_json(tmp_path)


# the verdicts, and so the bytes, are the same at both tolerances
EXAMPLE = {
    "anchor_slice.csv":
        "8d9c75f77abb0df965242b85faee8d3e2bdcabc3880a79e25d1c0b3a8aff04a7",
    "example.json":
        "948dc5dc25b7e309528c4b67ca1b10f40ce3c1f4cb1a94f0382d30c1c117abd9",
}


@pytest.mark.parametrize("tol", [[], ["--tol", "8"]], ids=["default", "tol8"])
def test_reproduce_example_artifacts_are_pinned(tol, tmp_path):
    assert cli.main(["reproduce-example", *tol, "--out", str(tmp_path)]) == 0
    for name, expected in EXAMPLE.items():
        assert sha256((tmp_path / name).read_bytes()).hexdigest() == expected
    assert_strict_json(tmp_path)


# command line -> every artifact but manifest.json; each run exits 0
COMMANDS = {
    "solve-example": (
        ["solve", str(ROOT / "configs" / "example.cfg")],
        {"obstacle_gap.csv":
             "749f7fdcc492520dfccf8325fcf81c1533640f737b98189994b191d11c6d2674",
         "solution.csv":
             "254dbdad37b73ffbd252a61a7ff46350873720b6fec1922ccddc742dd936f7e0",
         "solve.json":
             "b618a7e9294724dc9eb97c80a9c9c6bc1c3d66a21a32e341c20573df9bbca3c1"}),
    "solve-plane": (
        ["solve", str(ROOT / "perfbench" / "plane.cfg")],
        {"obstacle_gap.csv":
             "7082093ab4c109c528b96e07b603ea4c67431a27bd34db72a13d5a05d9396ced",
         "solution.csv":
             "832b25dc0f34c5164fc52949f5d2adca9bc190afdd3ebc1350685fb409ca28c3",
         "solve.json":
             "41549c214619b580d7d9a18f398a13761dd4ec9bbb658504b588c72411329b50"}),
    "solve-transport-no-obstacle": (
        ["solve", str(ROOT / "configs" / "transport.cfg"), "--no-obstacle"],
        {"solution.csv":
             "36a697aa60b62e8d183cc6c122d412b0fc7903233a27b99c2f1f8fb897360aea",
         "solve.json":
             "edcbffee66b871586aaa461e98b237cbe748a76ea9f78151723272e6fc7689fb"}),
    "check-example": (
        ["check", str(ROOT / "configs" / "example.cfg")],
        {"check.json":
             "642e66b549cd7c8d9abf1ca98046c9512f123e6ff1594b0231ff265faa3e5908"}),
    "check-plane": (
        ["check", str(ROOT / "perfbench" / "plane.cfg")],
        {"check.json":
             "d29905914043bd8b9513c81421880249de61d34cde142f95e3214344c711cb36"}),
    "compare-example": (
        ["compare", str(ROOT / "configs" / "example.cfg"),
         str(ROOT / "configs" / "example-lifted.cfg")],
        {"compare.json":
             "7b32d20ff5acf6221953941a8d459edfc0245ed258794423e005f509ee95cdec",
         "difference.csv":
             "9119c0ffff776b2229df62a72f2064b19b9f60de751ee0ed1da098c1ee23fd62"}),
    "doubling-example": (
        ["doubling", str(ROOT / "configs" / "example.cfg"),
         "--analytic", PROFILE],
        {"doubling.json":
             "de79c7b7ffcb2bf8f7071a957b859d2ff6d1c4d0c28b38d14080294de7e10478",
         "trend.csv":
             "40770a375db1e56dfb52473fe965b838e00e963ae57c1601f41aa07ae835f87d"}),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_artifacts_are_pinned(name, tmp_path):
    argv, expected = COMMANDS[name]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    written = {f.name: sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir() if f.name != "manifest.json"}
    assert written == expected
    assert_strict_json(tmp_path)

"""Pinned bytes of small viscosity runs, of the separating example and
of the other commands on the shipped configs.

The sha256 of `viscosity.json` and `violations.csv` for five CLI runs,
one per solution notion, that together produce 1-d sub and super probe
rows, terminal rows, 1-d constraint rows, 2-d constraint rows and
classical probe rows, whose margin is the minimum of the equation and the
obstacle gap; of the two `reproduce-example` artifacts at the default
tolerance and at `--tol 8`; and of every artifact but `manifest.json` of
`solve`, `check`, `compare` and `doubling` runs.  A moved hash is a moved
artifact: the rows, their order or their formatting changed.  The
viscosity JSON holds counts and the worst row of each kind; the CSV holds
every row with its probe.  Every JSON artifact of these runs,
`manifest.json` included, must also parse as strict JSON, with no NaN or
Infinity.
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
        "4a9057722ec7c9c05fbbf43bed8e6cbe28a6bbe76ea7d845b7801b1d9d3cc239",
        "8d6a8a8cd014aa51c687d3cd3ab6fc8e3bb511a3aa0667939d7114b3c9f26306"),
    "transport-hjb-super": (
        [str(ROOT / "configs" / "transport.cfg"), "--variant", "hjb-super",
         "--analytic=-abs(x1)", "--grid-nt", "41", "--grid-nx", "71"],
        "605a2de5b591d690346d0044cd92b3523db23ee5b2b7f2ba8649950b4f804998",
        "e5f8a3986f9ca369e63d75b31baff1c9bd1e2f8835c031308c49212055616bab"),
    "example-modified": (
        [str(ROOT / "configs" / "example.cfg"), "--variant",
         "qvi-super-modified", "--analytic", PROFILE,
         "--grid-nt", "41", "--grid-nx", "71"],
        "d194c11ced7a148f8d1d2b364202296ede352b2191f2c33023dc7af9bb911fe3",
        "37b0e0b12b9854accf7624846653be93978eca6ab6eac892e614bf3145a5d54a"),
    "plane-qvi-sub": (
        [str(ROOT / "perfbench" / "plane.cfg"), "--variant", "qvi-sub",
         "--analytic", "sin(x1) + cos(x2) + 0.5*(1-t)*x1"],
        "dc3cf365d98e64174ab4fa9bd133417306052671b3ceb893d2f2c2f54c62e497",
        "a53c1d6a9674cb5cb888ec5fe280f8beaf33976fdbd6f0d2cca34f6725e5a4a6"),
    # a - p = 2 and N[V] - V = 0.05 both clear the tolerance everywhere
    "example-classical": (
        [str(ROOT / "configs" / "example.cfg"), "--variant",
         "qvi-super-classical", "--analytic", "2*t",
         "--grid-nt", "13", "--grid-nx", "15", "--tol", "0.05"],
        "d81c6dfd20017c56a9fa0391f5bb918cec2a483a9723737151c769f06b156864",
        "8ef71db2b5facbc230e31f5167fce11ab5614dd3da845c95dc8b03e2ca047b9e"),
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
        {"solution.csv":
             "254dbdad37b73ffbd252a61a7ff46350873720b6fec1922ccddc742dd936f7e0",
         "solve.json":
             "c7243cfb44d067acb51bc33c7fd5a8d98076c886ec323fc37924d8600f354625"}),
    "solve-plane": (
        ["solve", str(ROOT / "perfbench" / "plane.cfg")],
        {"solution.csv":
             "832b25dc0f34c5164fc52949f5d2adca9bc190afdd3ebc1350685fb409ca28c3",
         "solve.json":
             "997c0fdd5d42152a9d305b541295ad7fd4531e4d7d35206e7719c07edad1baba"}),
    # hundreds of nodes tie across rows and take the row-minimum tie-break
    "solve-plane-ties": (
        ["solve", str(ROOT / "perfbench" / "plane.cfg"),
         "--grid-nt", "21", "--grid-nx", "41,41"],
        {"solution.csv":
             "1f5d83d3ce2da67cd591925716886b928cb5ee6d77ea2ee637b5e82e45a77d62",
         "solve.json":
             "ec3aea6511d74bd5c9ded7a78a0ac7922107d5f488653f839992b9f81094909a"}),
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
             "4064e80e2fd84d73c582769cb8f7a344cf7be7b1e6f48941d9e556237ece1e6b"}),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_artifacts_are_pinned(name, tmp_path):
    argv, expected = COMMANDS[name]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    written = {f.name: sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir() if f.name != "manifest.json"}
    assert written == expected
    assert_strict_json(tmp_path)

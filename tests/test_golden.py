"""Exact reduced strings pinned against a recorded reference.

The stabilizer reduction breaks weight ties on the rendered string, so a
change to how it searches could swap one minimal string for another without
any other test noticing. This module pins the ``derive`` report, every parity
and bracket string of the default 8x12 lattice and the twist logicals of the
two 14x12 readout lattices. To re-record the reference after an intended
change of output, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
import sys
import tempfile
from itertools import combinations

from twistsim import cli, tableau
from twistsim.lattice import build_lattice, twist_logicals

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_outputs.json")

LATTICES = {
    "8x12": (8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)]),
    "14x12_558": (14, 12, [(5, 5, 8)]),
    "14x12_557": (14, 12, [(5, 5, 7)]),
}
DERIVED = ("8x12", "14x12_557")


def _derive(name: str) -> dict:
    width, height, segments = LATTICES[name]
    cfg = {"lattice": {"width": width, "height": height, "segments": [
        {"row": r, "col_start": c1, "col_end": c2} for r, c1, c2 in segments]}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        out_path = os.path.join(tmp, "report.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert cli.main(["derive", "--config", cfg_path, "--out", out_path]) == 0
        with open(out_path) as fh:
            results = json.load(fh)["results"]
    return {"text_report": results["text_report"], "parities": results["parities"]}


def golden_outputs() -> dict:
    out: dict = {"derive": {name: _derive(name) for name in DERIVED}}
    lat = build_lattice(*LATTICES["8x12"])
    ctx = tableau.code_context(lat)
    out["parity_strings_8x12"] = {
        f"{a}_{b}": str(ctx.parity_string(a, b))
        for a, b in combinations(range(2 * lat.n_pairs), 2)
    }
    out["bracket_strings_8x12"] = {
        str(pair): str(ctx.bracket_string(pair)) for pair in range(lat.n_pairs)
    }
    out["twist_logicals_0"] = {}
    for name in ("14x12_558", "14x12_557"):
        z, x = twist_logicals(build_lattice(*LATTICES[name]), 0)
        out["twist_logicals_0"][name] = [str(z), str(x)]
    return out


def test_outputs_match_the_recorded_reference():
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert golden_outputs() == expected


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden_outputs(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.exit(0)

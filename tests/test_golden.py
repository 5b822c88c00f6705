"""Exact reduced strings and tableaux pinned against a recorded reference.

The stabilizer reduction breaks weight ties on the rendered string, so a
change to how it searches could swap one minimal string for another without
any other test noticing; likewise a change to the tableau kernel could change
which generators a state is written in without changing a single outcome.
This module pins the ``derive`` report, every parity and bracket string of the
default 8x12 lattice, the twist logicals of the two 14x12 readout lattices,
the ground tableau of all three lattices, a lattice-backend tableau after
three braids, fixed-seed lattice-backend statistics with their records, the
fixed-seed shot records (labels and correction names only) of the six-anyon
anyon and Fock backends, and the sha256 of fixed-seed ``stats`` reports on all
three backends and of ``mbb`` reports (whose Fock probabilities and
fidelity are floats).
To re-record the reference after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import sys
import tempfile
from itertools import combinations

import numpy as np

from twistsim import cli, mbb, tableau
from twistsim.lattice import build_lattice, twist_logicals

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_outputs.json")

LATTICES = {
    "8x12": (8, 12, [(2, 2, 4), (5, 2, 4), (8, 2, 4)]),
    "14x12_558": (14, 12, [(5, 5, 8)]),
    "14x12_557": (14, 12, [(5, 5, 7)]),
}
DERIVED = ("8x12", "14x12_557")


def _cli_report(command: str, cfg: dict, flags: list[str]) -> bytes:
    """Bytes of the report ``twistsim command --config cfg flags`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        out_path = os.path.join(tmp, "report.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert cli.main([command, "--config", cfg_path, "--out", out_path]
                        + flags) == 0
        with open(out_path, "rb") as fh:
            return fh.read()


def _derive(name: str) -> dict:
    width, height, segments = LATTICES[name]
    cfg = {"lattice": {"width": width, "height": height, "segments": [
        {"row": r, "col_start": c1, "col_end": c2} for r, c1, c2 in segments]}}
    results = json.loads(_cli_report("derive", cfg, []))["results"]
    return {"text_report": results["text_report"], "parities": results["parities"]}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    out["init_ground_sha256"] = {
        name: _sha256(tableau.init_ground(build_lattice(*shape), 0)
                      .to_text().encode())
        for name, shape in LATTICES.items()
    }
    backend = mbb.LatticeBackend(lat, np.random.default_rng(17))
    for _ in range(3):
        mbb.braid_once(backend)
    out["lattice_backend_after_3_braids"] = backend.tab.to_text()
    out["lattice_statistics"] = {
        str(n): mbb.run_statistics(
            lambda streams: mbb.LatticeBackend(lat, streams),
            n, shots=12, seed=23, keep_records=True)
        for n in range(4)
    }
    out["oracle_backend_records"] = {
        f"{name}_{n}": mbb.run_statistics(
            lambda streams: backend(6, streams), n,
            shots=20, seed=31, keep_records=True)["records"]
        for name, backend in (("anyon", mbb.AnyonBackend),
                              ("fock", mbb.FockBackend))
        for n in range(4)
    }
    out["stats_report_sha256"] = {
        f"{backend}_{n}": _sha256(_cli_report(
            "stats", {"backend": backend},
            ["--seed", "29", "--shots", str(shots), "--n-braids", str(n)]))
        for backend, shots in (("anyon", 300), ("fock", 300), ("lattice", 100))
        for n in range(4)
    }
    out["mbb_report_sha256"] = {
        "seed_7": _sha256(_cli_report("mbb", {}, ["--seed", "7"])),
        "alpha_0.6_beta_0.8j": _sha256(_cli_report(
            "mbb", {"alpha": 0.6, "beta": "0.8j"}, ["--seed", "5"])),
    }
    return json.loads(json.dumps(out))  # tuples as the JSON file has them


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

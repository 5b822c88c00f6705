"""Exact reduced strings and tableaux pinned against a recorded reference.

The stabilizer reduction breaks weight ties on the rendered string, so a
change to how it searches could swap one minimal string for another without
any other test noticing; likewise a change to the tableau kernel could change
which generators a state is written in without changing a single outcome.
This module pins the ``derive`` report, every parity and bracket string of the
default 8x12 lattice, the twist logicals of the two 14x12 readout lattices,
the ground tableau of all three lattices, a lattice-backend tableau after
three braids (written in the raw Jordan-Wigner strings the backend pins,
measures and applies; ``test_recorded_braid_tableau_is_the_reduced_string_state``
checks that it is the state the reduced strings reach), fixed-seed
lattice-backend statistics with their records, the
fixed-seed shot records (labels and correction names only) of the six-anyon
anyon and Fock backends, the sha256 of fixed-seed ``stats`` reports on all
three backends and of ``mbb`` reports (whose Fock probabilities and
fidelity are floats), and the readouts (``readout_records``): the hole and
direct readouts of 64 shots per 14x12 lattice, and one direct readout of
each reduced pair string of the pinned 8x12 ground, most of them strings the
ground does not register, whose frame flips commute with the string read.
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


def _state_sha256(t: tableau.Tableau) -> str:
    """sha256 of a tableau's text and its Pauli frame."""
    frame = json.dumps(sorted(t.reference_signs.items()))
    return _sha256((t.to_text() + frame).encode())


def readout_records() -> dict:
    """Readout-sweep's shot pattern on each 14x12 lattice, and one direct
    readout of each reduced pair string on the 8x12 ground pinned at
    ``mbb.START_PAIRINGS``."""
    out: dict = {}
    for name in ("14x12_558", "14x12_557"):
        lat = build_lattice(*LATTICES[name])
        loop = tableau.diamond_loop(lat, 0, 3)
        x_logical = twist_logicals(lat, 0)[1]
        ground = tableau.init_ground(lat, 0)
        shots = []
        for k in range(64):
            t = ground.copy()
            t.rng = np.random.default_rng(k)
            if k % 2:
                t.apply_pauli(x_logical)
            t2 = t.copy()
            hole, _ = tableau.measure_parity_hole(t, 0, loop)
            direct = tableau.measure_parity_direct(t2, t2.logicals["parity_0_1"])
            shots.append({
                "hole": hole, "direct": direct.outcome,
                "site_outcomes": direct.site_outcomes,
                "repaired_signs": direct.repaired_signs,
                "sha256": [_state_sha256(t), _state_sha256(t2)],
            })
        out[name] = shots
    lat = build_lattice(*LATTICES["8x12"])
    ctx = tableau.code_context(lat)
    pins = [(a - 1, b - 1, mbb.parity_sign_for((a, b), 6))
            for a, b in mbb.START_PAIRINGS[6]]
    ground = tableau.init_ground(lat, 0, pins)
    out["direct_8x12_pinned"] = {}
    for k, (a, b) in enumerate(combinations(range(2 * lat.n_pairs), 2)):
        t = ground.copy()
        t.rng = np.random.default_rng(k)
        tableau.measure_parity_direct(t, ctx.parity_string(a, b))
        out["direct_8x12_pinned"][f"{a}_{b}"] = _state_sha256(t)
    return out


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
    out["readout_records"] = readout_records()
    return json.loads(json.dumps(out))  # tuples as the JSON file has them


def test_recorded_braid_tableau_is_the_reduced_string_state():
    # the recorded lattice-backend tableau pins, measures and applies raw
    # strings; replaying its labels as forced outcomes with the reduced
    # strings on a lone init_ground tableau must reach the same state: every
    # stabilizer row of each tableau, with its sign, is fixed at +1 in the
    # other
    lat = build_lattice(*LATTICES["8x12"])
    ctx = tableau.code_context(lat)
    backend = mbb.LatticeBackend(lat, np.random.default_rng(17))
    records = [mbb.braid_once(backend).shot(0) for _ in range(3)]
    pins = [(a - 1, b - 1, mbb.parity_sign_for((a, b), 6))
            for a, b in mbb.START_PAIRINGS[6]]
    replay = tableau.init_ground(lat, 0, pins)

    def reduced(pair):
        return ctx.parity_string(pair[0] - 1, pair[1] - 1)

    for record in records:
        labels = (record.n13, record.n14, record.n12_final)
        for pair, label in zip(mbb.CYCLE_PAIRS, labels):
            replay.measure(reduced(pair),
                           force=mbb.parity_sign_for(pair, 6) * (1 - 2 * label))
        _, pair = mbb.correction_for(record)
        if pair is not None:
            replay.apply_pauli(reduced(pair))
    assert {(r.n13, r.n14, r.n12_final) for r in records} != {(0, 0, 0)}
    for a, b in ((backend.tab, replay), (replay, backend.tab)):
        for i in range(a.n, 2 * a.n):
            assert b.expectation_sign(a.row_operator(i)) == 1, i


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

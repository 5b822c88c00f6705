import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistsim
from twistsim.cli import main
from twistsim.tableau import Tableau


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify", "--seed", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["library_version"]
    assert report["config_sha256"]


def test_derive_reports_two_unpaired_modes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lattice": {"width": 8, "height": 6,
                    "segments": [{"row": 1, "col_start": 2, "col_end": 5}]},
    }))
    code, out, _ = run_cli(["derive", "--config", str(cfg)], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["unpaired_modes"]) == 2
    assert "reduced" in report["results"]["parities"]["0"] or \
        "reduced" in report["results"]["parities"][0 if 0 in report["results"]["parities"] else "0"]


def test_malformed_config_fails_without_output(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(
        ["stats", "--config", str(cfg), "--out", str(out_file)], capsys)
    assert code == 1
    assert not out_file.exists()
    assert "config error" in err


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_field": 1}))
    code, _, err = run_cli(["stats", "--config", str(cfg)], capsys)
    assert code == 1
    assert "unknown config fields" in err


def test_stats_deterministic_and_signature(tmp_path, capsys):
    args = ["stats", "--seed", "3", "--shots", "400", "--n-braids", "2"]
    code1, out1, _ = run_cli(list(args), capsys)
    code2, out2, _ = run_cli(list(args), capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"]["flip_frequency"] == 1.0


def _fresh_interpreter_report(args):
    """The report of ``twistsim args`` from a new Python process."""
    src = str(Path(twistsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "twistsim.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_consecutive_main_calls_match_fresh_interpreters(capsys):
    runs = [["stats", "--seed", "5", "--shots", "300", "--n-braids", "1"],
            ["stats", "--seed", "8", "--shots", "120", "--n-braids", "3"]]
    outs = []
    for args in runs:
        code, out, _ = run_cli(list(args), capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] != outs[1]
    assert outs == [_fresh_interpreter_report(args) for args in runs]


def test_stats_csv_output(tmp_path, capsys):
    out_file = tmp_path / "stats.csv"
    code, _, _ = run_cli(
        ["stats", "--seed", "0", "--shots", "50", "--n-braids", "0",
         "--out", str(out_file), "--format", "csv"], capsys)
    assert code == 0
    text = out_file.read_text()
    assert "flip_frequency" in text and "0.0" in text


def test_mbb_trace(capsys):
    code, out, _ = run_cli(["mbb", "--seed", "9"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]["trace"]) == 3
    assert abs(report["results"]["fidelity"] - 1.0) < 1e-10


def test_oracle_check(capsys):
    code, out, _ = run_cli(["oracle-check", "--seed", "2", "--shots", "20"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["mismatches"] == 0


def test_lattice_file_config(tmp_path, capsys):
    lattice_file = tmp_path / "lat.json"
    lattice_file.write_text(json.dumps({
        "format": "twistsim-lattice/1", "width": 8, "height": 6,
        "segments": [{"row": 1, "col_start": 2, "col_end": 5}],
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": str(lattice_file)}))
    code, out, _ = run_cli(["derive", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(json.loads(out)["results"]["unpaired_modes"]) == 2


LATTICE_FILE = {"format": "twistsim-lattice/1", "width": 8, "height": 6,
                "segments": [{"row": 1, "col_start": 2, "col_end": 5}]}


@pytest.mark.parametrize("lattice", [
    {**LATTICE_FILE, "format": "twistsim-lattice/0"},
    {k: v for k, v in LATTICE_FILE.items() if k != "segments"},
    [1, 2],
    "directory",
], ids=["wrong_format", "missing_segments", "list", "directory"])
def test_malformed_lattice_exits_with_config_error(tmp_path, capsys, lattice):
    if isinstance(lattice, dict):
        lattice_file = tmp_path / "lat.json"
        lattice_file.write_text(json.dumps(lattice))
        lattice = str(lattice_file)
    elif lattice == "directory":
        lattice = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": lattice}))
    code, out, err = run_cli(["derive", "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert "config error" in err and "lattice" in err


def _flip_fixed_outcomes(measure):
    def faulty(self, p, force=None):
        out = measure(self, p, force)
        return out if self.last_random else -out
    return faulty


def _negate_randomness_flag(measure):
    def faulty(self, p, force=None):
        out = measure(self, p, force)
        self.last_random = not self.last_random
        return out
    return faulty


@pytest.mark.parametrize("fault", [_flip_fixed_outcomes,
                                   _negate_randomness_flag])
def test_oracle_check_reports_a_faulty_tableau(monkeypatch, capsys, fault):
    monkeypatch.setattr(Tableau, "measure", fault(Tableau.measure))
    code, out, _ = run_cli(["oracle-check", "--shots", "5"], capsys)
    assert code == 2
    assert json.loads(out)["results"]["mismatches"] > 0


TWO_PAIRS = {"width": 8, "height": 9, "segments": [
    {"row": 2, "col_start": 2, "col_end": 4}, {"row": 5, "col_start": 2, "col_end": 4}]}


@pytest.mark.parametrize("command, cfg, flags, message", [
    ("stats", {"backend": "lattice", "lattice": TWO_PAIRS}, [], "3 twist pairs"),
    ("stats", {}, ["--shots", "0"], "shots"),
    ("stats", {}, ["--seed", "-3"], "seed"),
    ("stats", {}, ["--n-braids", "-1"], "n_braids"),
    ("mbb", {}, ["--seed", "-3"], "seed"),
    ("oracle-check", {}, ["--seed", "-3"], "seed"),
    ("oracle-check", {}, ["--shots", "0"], "shots"),
    ("oracle-check", {}, ["--shots", "-2"], "shots"),
    ("mbb", {"alpha": "abc"}, [], "alpha"),
    ("mbb", {"alpha": 0, "beta": 0}, [], "both be zero"),
    ("stats", {"shots": 2.7}, [], "shots"),
    ("stats", {"n_braids": 1.5}, [], "n_braids"),
    ("stats", {"shots": "5"}, [], "shots"),
    ("oracle-check", {"shots": 3.0}, [], "shots"),
], ids=["two_pair_lattice", "zero_shots", "negative_seed", "negative_braids",
        "mbb_negative_seed", "oracle_negative_seed", "oracle_zero_shots",
        "oracle_negative_shots", "mbb_unparsable_alpha", "mbb_zero_amplitudes",
        "fractional_shots", "fractional_braids", "string_shots",
        "oracle_float_shots"])
def test_bad_stats_config_exits_with_config_error(tmp_path, capsys, command, cfg,
                                                  flags, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_file = tmp_path / "report.json"
    # --shots would override the config's own shots
    shots = [] if "shots" in cfg else ["--shots", "5"]
    code, out, err = run_cli(
        [command, "--config", str(path), *shots, "--out", str(out_file)]
        + flags, capsys)
    assert code == 1
    assert out == "" and not out_file.exists()
    assert "config error" in err and message in err


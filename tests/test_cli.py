import csv
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistsim
from twistsim import cli
from twistsim.cli import main
from twistsim.tableau import Tableau

from test_tableau import cyclic_gc_off


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


def _lattice_stats_job(tmp_path, seed):
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps({"backend": "lattice", "shots": 60,
                               "n_braids": seed % 4, "seed": seed}))
    assert main(["stats", "--config", str(cfg),
                 "--out", str(tmp_path / "report.json")]) in (0, 2)


def test_a_lattice_stats_job_frees_its_lattice_by_reference_counting(
        tmp_path, monkeypatch):
    refs, build = [], cli.build_lattice

    def build_lattice(*args):
        lat = build(*args)
        refs.append(weakref.ref(lat))
        return lat

    monkeypatch.setattr(cli, "build_lattice", build_lattice)
    with cyclic_gc_off():
        _lattice_stats_job(tmp_path, 3)
        assert len(refs) == 1 and refs[0]() is None


def test_lattice_stats_jobs_leave_no_lattice_objects_to_the_collector(tmp_path):
    # what a job builds is freed by reference counting; the cyclic garbage
    # it leaves (the indenting JSON encoder's closures) holds none of it
    from twistsim.lattice import Plaquette, TwistLattice
    from twistsim.pauli import PauliString
    from twistsim.tableau import CodeContext

    _lattice_stats_job(tmp_path, 0)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for seed in range(20):
            _lattice_stats_job(tmp_path, seed)
        gc.collect()
        kept = [type(o).__name__ for o in gc.garbage if isinstance(
            o, (TwistLattice, CodeContext, Tableau, Plaquette, PauliString))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert kept == []


def test_stats_csv_output(tmp_path, capsys):
    out_file = tmp_path / "stats.csv"
    code, _, _ = run_cli(
        ["stats", "--seed", "0", "--shots", "50", "--n-braids", "0",
         "--out", str(out_file), "--format", "csv"], capsys)
    assert code == 0
    text = out_file.read_text()
    assert "flip_frequency" in text and "0.0" in text


def test_config_out_and_format_are_honoured(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "verify", "out": str(out_file),
                               "format": "csv"}))
    code, out, _ = run_cli(["verify", "--config", str(cfg)], capsys)
    assert code == 0 and out == ""
    assert out_file.read_text().splitlines()[0] == "key,value"
    # the flags override the config's entries
    flag_file = tmp_path / "flag.json"
    code, out, _ = run_cli(["verify", "--config", str(cfg), "--out", str(flag_file),
                            "--format", "json"], capsys)
    assert code == 0 and out == ""
    report = json.loads(flag_file.read_text())
    assert report["passed"]
    # where a report goes is not part of the experiment: one hash for both
    # places, and for the report of the same experiment on stdout
    with open(out_file, newline="") as fh:
        csv_rows = dict(list(csv.reader(fh))[1:])
    assert csv_rows["config_sha256"] == report["config_sha256"]
    assert "out" not in report["config"] and "format" not in report["config"]
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert json.loads(out)["config_sha256"] == report["config_sha256"]


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
    ("mbb", {"alpha": 1e-320, "beta": 0}, [], "normal float"),
    ("mbb", {"alpha": 1.7e308, "beta": 1.7e308}, [], "normal float"),
    ("mbb", {"alpha": "1.7e308+1.7e308j"}, [], "normal float"),
    ("stats", {"shots": 2.7}, [], "shots"),
    ("stats", {"n_braids": 1.5}, [], "n_braids"),
    ("stats", {"shots": "5"}, [], "shots"),
    ("oracle-check", {"shots": 3.0}, [], "shots"),
    ("verify", {"format": "xml"}, [], "format"),
    ("verify", {"format": "xml"}, ["--format", "csv"], "format"),
    ("verify", {"out": 3}, [], "out"),
    ("verify", {"experiment": "mbb"}, [], "experiment"),
    ("stats", {"experiment": "verify"}, [], "experiment"),
], ids=["two_pair_lattice", "zero_shots", "negative_seed", "negative_braids",
        "mbb_negative_seed", "oracle_negative_seed", "oracle_zero_shots",
        "oracle_negative_shots", "mbb_unparsable_alpha", "mbb_zero_amplitudes",
        "mbb_subnormal_amplitudes", "mbb_norm_overflows", "mbb_modulus_overflows",
        "fractional_shots", "fractional_braids", "string_shots",
        "oracle_float_shots", "unknown_format", "unknown_format_under_flag",
        "non_path_out", "other_experiment", "stats_other_experiment"])
def test_bad_stats_config_exits_with_config_error(tmp_path, capsys, command, cfg,
                                                  flags, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_file = tmp_path / "report.json"
    # --shots would override the config's own shots, and only stats and
    # oracle-check read shots at all
    reads_shots = command in ("stats", "oracle-check") and "shots" not in cfg
    shots = ["--shots", "5"] if reads_shots else []
    code, out, err = run_cli(
        [command, "--config", str(path), *shots, "--out", str(out_file)]
        + flags, capsys)
    assert code == 1
    assert out == "" and not out_file.exists()
    assert "config error" in err and message in err



@pytest.mark.parametrize("command, cfg, flags, key", [
    ("mbb", {}, ["--n-braids", "3"], "n_braids"),
    ("mbb", {}, ["--shots", "4"], "shots"),
    ("mbb", {"backend": "anyon"}, [], "backend"),
    ("verify", {}, ["--shots", "7"], "shots"),
    ("verify", {"alpha": 1.0}, [], "alpha"),
    ("derive", {"lattice": TWO_PAIRS}, ["--n-braids", "1"], "n_braids"),
    ("derive", {"lattice": TWO_PAIRS, "seed": 1, "shots": 5}, [], "shots"),
    ("stats", {"alpha": 0.6}, [], "alpha"),
    ("oracle-check", {}, ["--n-braids", "2"], "n_braids"),
    ("oracle-check", {"backend": "fock"}, [], "backend"),
], ids=["mbb_n_braids", "mbb_shots", "mbb_backend", "verify_shots",
        "verify_alpha", "derive_n_braids", "derive_shots", "stats_alpha",
        "oracle_n_braids", "oracle_backend"])
def test_a_key_the_experiment_does_not_read_is_a_config_error(
        tmp_path, capsys, command, cfg, flags, key):
    # a parameter without effect would still enter the report's config and
    # change its hash
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        [command, "--config", str(path), "--out", str(out_file)] + flags, capsys)
    assert code == 1
    assert out == "" and not out_file.exists()
    assert "config error" in err and repr(key) in err


@pytest.mark.parametrize("where", ["existing_dir", "missing_dir", "config_missing_dir"])
def test_a_destination_that_cannot_take_the_report_is_a_config_error(
        tmp_path, capsys, monkeypatch, where):
    # checked before the experiment runs, so a long run is never lost
    monkeypatch.setitem(cli._EXPERIMENTS, "verify",
                        lambda cfg: pytest.fail("the experiment ran"))
    missing = tmp_path / "missing" / "report.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(missing)}))
    flags = {"existing_dir": ["--out", str(tmp_path)],
             "missing_dir": ["--out", str(missing)],
             "config_missing_dir": ["--config", str(cfg)]}[where]
    code, out, err = run_cli(["verify", *flags], capsys)
    assert code == 1
    assert out == "" and list(tmp_path.iterdir()) == [cfg]
    assert "config error" in err and "its directory is missing" in err


# -- every config ends in exit 0, 1 or 2 ----------------------------------------

THREE_PAIRS = {"width": 8, "height": 12, "segments": [
    {"row": r, "col_start": 2, "col_end": 4} for r in (2, 5, 8)]}


def _mostly(valid, *wrong):
    """``valid`` about nine draws in ten, else one of ``wrong``."""
    return st.integers(0, 9).flatmap(
        lambda k: valid if k < 9 else st.sampled_from(wrong))


@st.composite
def _grids(draw, max_width=9, max_height=10, max_segments=2):
    """A grid with up to ``max_segments`` short segments on rows 1 and 4.
    On a small grid a segment runs off it, and two segments can overlap:
    both are config errors."""
    width = draw(st.integers(4, max_width))
    height = draw(st.integers(4, max_height))
    rows = draw(st.lists(st.sampled_from([1, 4]), unique=True, max_size=max_segments))
    segments = []
    for row in rows:
        start = draw(st.integers(1, 3))
        segments.append({"row": row, "col_start": start,
                         "col_end": draw(st.integers(start + 2, start + 4))})
    return {"width": width, "height": height, "segments": segments}


# the lattices each experiment runs, kept small: oracle-check builds a dense
# state of 2^sites amplitudes, and stats needs three pairs
_LATTICES = {"derive": _grids(), "verify": _grids(),
             "oracle-check": _grids(max_width=4, max_height=4, max_segments=0),
             "stats": st.just(THREE_PAIRS)}
_CONFIG_VALUES = {
    "seed": _mostly(st.integers(0, 2**70), -1, True, 2.5, "5"),
    "shots": _mostly(st.integers(1, 2), 0, -1, True, 2.5, "5", None),
    "n_braids": _mostly(st.integers(0, 4), -1, 1.5, "2", None),
    "backend": _mostly(st.sampled_from(["anyon", "fock", "lattice"]), "tableau", 3),
    "alpha": _mostly(st.floats(-2, 2), float("nan"), float("inf"), 1e-320, "abc",
                     "", True, None, "1.7e308+1.7e308j", "0.8j"),
    "beta": _mostly(st.floats(-2, 2), float("-inf"), 1.7e308, 5e-324, "x", "0.8j"),
    "format": _mostly(st.sampled_from(["json", "csv"]), "xml", 1),
    "out": st.sampled_from([3, None]),  # the report's path comes from --out
}


@st.composite
def cli_runs(draw, command):
    """``(config, flags)`` of ``command``: a subset of the keys it reads,
    now and then a key it does not read or a bad value, and small integer
    flags. ``stats`` and ``oracle-check`` always get a small ``shots``, so
    that no run takes their default hundreds or thousands of shots, and
    ``derive`` nearly always gets the lattice it requires."""
    keys = set(draw(st.lists(st.sampled_from(
        sorted(cli._EXPERIMENT_KEYS[command]) + ["seed", "format"]))))
    if command in ("stats", "oracle-check"):
        keys.add("shots")
    if command == "derive" and draw(_mostly(st.just(True), False)):
        keys.add("lattice")
    keys |= draw(_mostly(st.just(set()), {"out"}, {"alpha"}, {"backend"}))
    cfg = {key: draw(_mostly(_LATTICES[command], TWO_PAIRS, {"width": 8},
                             {"width": "8", "height": 6}, [1, 2], 7, "missing.json")
                     if key == "lattice" else _CONFIG_VALUES[key])
           for key in sorted(keys)}
    cfg |= draw(_mostly(st.just({}), {"experiment": command},
                        {"experiment": "verify"}))
    names = ["--seed", "--n-braids"] if command == "stats" else ["--seed"]
    flags = []
    for flag in draw(st.lists(st.sampled_from(names), unique=True)):
        flags += [flag, str(draw(_mostly(st.integers(0, 5), -1, -2)))]
    return cfg, flags


# examples per experiment: one oracle-check run builds dense states of
# 2^16 amplitudes and takes about 0.1 s on a 2-core host, the others a few
# milliseconds
@pytest.mark.parametrize("command, examples", [
    ("derive", 20), ("mbb", 20), ("oracle-check", 4), ("stats", 20), ("verify", 20)])
def test_every_config_exits_0_1_or_2_and_reruns_alike(tmp_path_factory, capsys,
                                                      command, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(run=cli_runs(command))
    def check(run):
        cfg, flags = run
        work = tmp_path_factory.mktemp("fuzz")
        path, out = work / "cfg.json", work / "report"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(out), *flags]
        code, stdout, _ = run_cli(argv, capsys)  # nothing escapes main
        assert code in (0, 1, 2)
        assert stdout == ""
        if code == 1:
            assert not out.exists()
        if code == 0:
            first = out.read_bytes()
            out.unlink()
            assert run_cli(argv, capsys)[:2] == (0, "")
            assert out.read_bytes() == first

    check()

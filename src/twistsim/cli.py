"""Batch experiment runner.

Subcommands: ``derive`` (Majorana-mode report), ``verify`` (invariant suite),
``mbb`` (one traced braid cycle), ``stats`` (Monte Carlo parity-flip
frequencies), ``oracle-check`` (tableau vs dense cross-validation). Reports
are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import __version__, dense, jw, mbb
from ._gf2 import rank
from .lattice import GeometryError, SizeError, build_lattice, lattice_spec_loads
from .pauli import PauliString

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

# the keys each experiment reads besides experiment, seed, out and format;
# any other key, from a flag or the file, is a config error
_EXPERIMENT_KEYS = {"derive": {"lattice"}, "verify": {"lattice"},
                    "mbb": {"alpha", "beta"},
                    "stats": {"backend", "lattice", "shots", "n_braids"},
                    "oracle-check": {"lattice", "shots"}}


class ConfigError(ValueError):
    pass


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        if cfg.get("experiment", args.command) != args.command:
            raise ConfigError(f"config is for experiment {cfg['experiment']!r}, "
                              f"not {args.command!r}")
    for key in ("seed", "shots", "n_braids"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    unknown = set(cfg) - {"experiment", "seed", "out", "format"} \
        - _EXPERIMENT_KEYS[args.command]
    if unknown:
        raise ConfigError(f"unknown config fields for {args.command}: "
                          f"{sorted(unknown)}")
    seed = cfg.setdefault("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(cfg.get("out", ""), str):
        raise ConfigError(f"out must be a file path, got {cfg['out']!r}")
    if cfg.get("format", "json") not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {cfg['format']!r}")
    return cfg


def _build_lattice_from_cfg(cfg, default=None):
    spec = cfg.get("lattice", default)
    if spec is None:
        raise ConfigError("experiment requires a 'lattice' entry")
    try:
        if isinstance(spec, str):
            with open(spec) as fh:
                return lattice_spec_loads(fh.read())
        segments = [
            (s["row"], s["col_start"], s["col_end"]) for s in spec.get("segments", [])
        ]
        return build_lattice(spec["width"], spec["height"], segments)
    except (KeyError, TypeError, AttributeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad lattice description: {exc}") from exc


def _check(name: str, passed, detail: str) -> dict:
    """One entry of a report's ``checks``."""
    return {"name": name, "passed": bool(passed), "detail": detail}


def _report(cfg: dict, results: dict, checks: list[dict]) -> dict:
    body = {
        "schema_version": 1,
        "library_version": __version__,
        "config": cfg,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "seed": cfg.get("seed", 0),
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks) if checks else True,
    }
    return body


def _emit(report: dict, out: str | None, fmt: str):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        flat = dict(report["results"])
        flat["passed"] = report["passed"]
        flat["config_sha256"] = report["config_sha256"]
        for key in sorted(flat):
            writer.writerow([key, flat[key]])
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- experiments ---------------------------------------------------------------


def _run_derive(cfg) -> tuple[dict, list[dict]]:
    lat = _build_lattice_from_cfg(cfg)
    path = jw.default_path(lat)
    images = jw.plaquette_images(lat, path)
    cls = jw.classify_modes(lat, path)
    lines = [f"lattice {lat.width}x{lat.height}, {len(lat.plaquettes)} plaquettes,"
             f" {len(lat.twists)} twists"]
    for pid in sorted(images):
        lines.append(f"plaquette {pid:3d}: {images[pid]}")
    unpaired = sorted(cls.unpaired)
    lines.append("unpaired modes: " + ", ".join(map(str, unpaired)))
    parities = {}
    for pair in range(lat.n_pairs):
        p_path = jw.default_path(lat, pair)
        raw = jw.parity_operator(lat, p_path, pair)
        reduced = jw.reduce_by_stabilizers(raw, lat)
        parities[pair] = {"raw": str(raw), "reduced": str(reduced)}
        lines.append(f"pair {pair} parity: {raw}")
        lines.append(f"pair {pair} reduced: {reduced}")
    checks = [_check("unpaired_mode_count", len(cls.unpaired) == len(lat.twists),
                     f"{len(cls.unpaired)} unpaired vs {len(lat.twists)} twists")]
    results = {
        "text_report": "\n".join(lines),
        "unpaired_modes": [f"{m.kind}{m.site}" for m in unpaired],
        "parities": parities,
    }
    return results, checks


def _run_verify(cfg) -> tuple[dict, list[dict]]:
    lat = _build_lattice_from_cfg(
        cfg, default={"width": 8, "height": 6,
                      "segments": [{"row": 1, "col_start": 2, "col_end": 5}]}
    )
    checks = []
    ops = lat.plaquette_ops
    commuting = all(
        ops[i].commutes_with(ops[j])
        for i in range(len(ops)) for j in range(i + 1, len(ops))
    )
    checks.append(_check("plaquettes_commute", commuting, f"{len(ops)} operators"))
    r = rank(lat.stabilizer_matrix())
    checks.append(_check("plaquettes_independent", r == len(ops),
                         f"rank {r} of {len(ops)}"))
    path = jw.default_path(lat)
    images = jw.plaquette_images(lat, path)
    pairlike = all(
        im.weight == 4 and len({m.kind for m in im.factors}) == 1
        and im.phase in (0, 2)
        for im in images.values()
    )
    checks.append(_check("majorana_images_pairwise", pairlike,
                         "4 modes, one kind, real sign each"))
    cls = jw.classify_modes(lat, path)
    checks.append(_check(
        "unpaired_modes_at_twists",
        sorted(m.site for m in cls.unpaired) == sorted(t.twist_site for t in lat.twists),
        f"{len(cls.unpaired)} unpaired"))
    from .anyon import pair_transform
    u = pair_transform("even", ((1, 2), (3, 4)), ((1, 3), (2, 4)))
    expected = np.exp(1j * np.pi / 8) / np.sqrt(2) * np.array([[1, -1j], [-1j, 1]])
    checks.append(_check("pair_transform_even", np.allclose(u, expected, atol=1e-12),
                         "matches the published matrix"))
    results = {"n_checks": len(checks),
               "n_passed": sum(c["passed"] for c in checks)}
    return results, checks


def _amplitude(cfg, key, default) -> complex:
    """``cfg[key]`` as a finite complex number: a JSON number or a string
    that ``complex()`` parses."""
    value = cfg.get(key, default)
    try:
        amp = None if isinstance(value, bool) else complex(value)
    except (TypeError, ValueError):
        amp = None
    if amp is None or not cmath.isfinite(amp):
        raise ConfigError(f"{key} must be a finite complex number, got {value!r}")
    return amp


def _run_mbb(cfg) -> tuple[dict, list[dict]]:
    alpha = _amplitude(cfg, "alpha", 1.0)
    beta = _amplitude(cfg, "beta", 0.0)
    try:
        mbb.amplitude_norm(alpha, beta)  # the check the backends make
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rng = np.random.default_rng(cfg.get("seed", 0))
    # a generator is a batch of one: the report reads shot 0 as Python scalars
    backend = mbb.FockBackend(4, rng, alpha, beta)
    initial = backend.vector()[0]
    record = mbb.braid_once(backend).shot(0)
    correction = mbb.correction_for(record)[0]
    labels = (record.n13, record.n14, record.n12_final)
    trace = [
        {"step": step, "pair": list(pair), "label": n, "prob": prob}
        for step, (pair, n, prob) in enumerate(
            zip(mbb.CYCLE_PAIRS, labels, record.probabilities))
    ]
    fidelity = mbb.verify_braid_equivalence(
        initial, backend.vector()[0], mbb.MBBRecord(0, 0, 0),
        backend.space)
    checks = [_check("braid_equivalence_fidelity", abs(fidelity - 1.0) < 1e-10,
                     f"fidelity {fidelity:.12f}")]
    results = {
        "trace": trace,
        "record": {"n13": record.n13, "n14": record.n14,
                   "n12_final": record.n12_final},
        "correction": correction,
        "fidelity": fidelity,
    }
    return results, checks


def _stats_backend_factory(cfg):
    backend = cfg.get("backend", "anyon")
    if backend in ("anyon", "fock"):
        model = mbb.AnyonBackend if backend == "anyon" else mbb.FockBackend
        return lambda streams: model(6, streams)
    if backend == "lattice":
        lat = _build_lattice_from_cfg(
            cfg, default={"width": 8, "height": 12, "segments": [
                {"row": 2, "col_start": 2, "col_end": 4},
                {"row": 5, "col_start": 2, "col_end": 4},
                {"row": 8, "col_start": 2, "col_end": 4},
            ]}
        )
        if lat.n_pairs != 3:
            raise ConfigError(
                f"stats reads the (3,5) label, so it needs 3 twist pairs; "
                f"the lattice has {lat.n_pairs}")
        return lambda streams: mbb.LatticeBackend(lat, streams)
    raise ConfigError(f"unknown backend {backend!r}")


def _count(cfg, key, default, minimum):
    """``cfg[key]``, which must be an integer of at least ``minimum``."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _run_stats(cfg) -> tuple[dict, list[dict]]:
    shots = _count(cfg, "shots", 10000, 1)
    n_braids = _count(cfg, "n_braids", 1, 0)
    seed = cfg.get("seed", 0)
    factory = _stats_backend_factory(cfg)
    res = mbb.run_statistics(factory, n_braids, shots, seed)
    expected = {0: 0.0, 1: 0.5, 2: 1.0, 3: 0.5}[n_braids % 4]
    sigma = np.sqrt(max(expected * (1 - expected), 0.25) / shots)
    tol = 3 * sigma if expected not in (0.0, 1.0) else 0.0
    ok = abs(res["flip_frequency"] - expected) <= tol + 1e-12
    checks = [_check("flip_frequency_signature", ok,
                     f"freq {res['flip_frequency']:.4f} vs expected {expected}")]
    return res, checks


def _run_oracle_check(cfg) -> tuple[dict, list[dict]]:
    from .tableau import Tableau

    lat = _build_lattice_from_cfg(cfg, default={"width": 4, "height": 4,
                                                "segments": []})
    if lat.n_sites > dense.MAX_DENSE_SITES:
        raise ConfigError("oracle-check lattice exceeds the dense-oracle cap")
    seed = cfg.get("seed", 0)
    shots = _count(cfg, "shots", 200, 1)
    sites = list(lat.sites)
    ops = list(lat.plaquette_ops)
    mismatches = 0
    rng = np.random.default_rng(seed)
    for _ in range(shots):
        t = Tableau.zero_state(lat.n_sites, np.random.default_rng(rng.integers(2**32)))
        v = dense.zero_state(lat.n_sites)
        strings = []
        for _step in range(6):
            letters = {int(s): "IXYZ"[rng.integers(4)] for s in sites}
            d = {s: x for s, x in letters.items() if x != "I"}
            if d:
                strings.append(PauliString.from_dict(d))
        for p in strings + ops:
            out_t = t.measure(p)
            # project the dense state on out_t, applying p once; prob is
            # out_t's probability, 1/2 if random and 1 if fixed
            try:
                _, (prob,), (v,) = dense.measure_involution(
                    v[None], dense.apply_pauli(v, p, sites)[None], None, int(out_t == 1))
            except dense.InconsistentOutcomeError:
                mismatches += 1  # the states diverged; end this sequence
                break
            if t.last_random != (prob < 0.75) or t.measure(p) != out_t:
                mismatches += 1
    checks = [_check("tableau_matches_dense", mismatches == 0,
                     f"{mismatches} mismatches over {shots} sequences")]
    return {"shots": shots, "mismatches": mismatches}, checks


_EXPERIMENTS = {
    "derive": _run_derive,
    "verify": _run_verify,
    "mbb": _run_mbb,
    "stats": _run_stats,
    "oracle-check": _run_oracle_check,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: argparse formats every
    ``add_argument``, which costs about a millisecond per build."""
    parser = argparse.ArgumentParser(
        prog="twistsim",
        description="Twist-defect surface-code simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--n-braids", dest="n_braids", type=int, default=None)
        # --out and --format override the config's "out" and "format"
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args)
        cfg["experiment"] = args.command
        # where the report goes is not part of the experiment, nor of its hash
        out, fmt = cfg.pop("out", None), cfg.pop("format", "json")
        out, fmt = args.out or out, args.format or fmt
        if out and (os.path.isdir(out)
                    or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
            raise ConfigError(f"out {out!r} is a directory, or its directory is missing")
        results, checks = _EXPERIMENTS[args.command](cfg)
    except (ConfigError, SizeError, GeometryError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    report = _report(cfg, results, checks)
    _emit(report, out, fmt)
    if not report["passed"]:
        failed = [c["name"] for c in checks if not c["passed"]]
        print(f"invariant violation: {failed}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

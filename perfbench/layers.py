"""Layer spans for the traced benchmark run.

Span times are CPU seconds of the process, like the end-to-end job times.
The tracer wraps public functions of the ``twistsim`` modules from outside the
package. Each wrapped call records a span (layer name, parent span, start,
end, job) in memory; the spans of a pass are reduced to per-layer counts and
self times, and the first pass's spans are written out as JSON lines when the
run ends.

A function is replaced at every module attribute that refers to it, because
callers look names up in their own module: ``mbb`` calls ``transform_state``
through its own global imported from ``anyon``, ``jw`` calls
``all_plaquette_operators`` through a name imported from ``lattice``. A target
that no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import process_time

# (layer name, module, attribute path). Layers are the package's modules;
# ``pauli`` runs inside every layer and ``projection`` is a test-only oracle,
# so neither is wrapped.
TARGETS = [
    ("cli.main", "twistsim.cli", "main"),
    ("mbb.LatticeBackend.init", "twistsim.mbb", "LatticeBackend.__init__"),
    ("mbb.LatticeBackend.measure", "twistsim.mbb", "LatticeBackend.measure"),
    ("mbb.AnyonBackend.measure", "twistsim.mbb", "AnyonBackend.measure"),
    ("mbb.FockBackend.measure", "twistsim.mbb", "FockBackend.measure"),
    ("mbb.braid_once", "twistsim.mbb", "braid_once"),
    ("anyon.transform_state", "twistsim.anyon", "transform_state"),
    ("anyon.apply_pair_parity", "twistsim.anyon", "apply_pair_parity"),
    ("dense.FockSpace.init", "twistsim.dense", "FockSpace.__init__"),
    ("dense.FockSpace.parity_op", "twistsim.dense", "FockSpace.parity_op"),
    ("dense.FockSpace.pairing_basis", "twistsim.dense", "FockSpace.pairing_basis"),
    ("tableau.measure", "twistsim.tableau", "Tableau.measure"),
    ("tableau.expectation_sign", "twistsim.tableau", "Tableau.expectation_sign"),
    ("tableau.copy", "twistsim.tableau", "Tableau.copy"),
    ("tableau.apply_pauli", "twistsim.tableau", "Tableau.apply_pauli"),
    ("tableau.init_ground", "twistsim.tableau", "init_ground"),
    ("tableau.measure_parity_hole", "twistsim.tableau", "measure_parity_hole"),
    ("tableau.measure_parity_direct", "twistsim.tableau", "measure_parity_direct"),
    ("kernels.anticommute_mask", "twistsim._kernels", "anticommute_mask"),
    ("kernels.measurement_update", "twistsim._kernels", "measurement_update"),
    ("kernels.rowsum_phase", "twistsim._kernels", "rowsum_phase"),
    ("gf2.rank", "twistsim._gf2", "rank"),
    ("gf2.solve", "twistsim._gf2", "solve"),
    ("gf2.solve_symplectic", "twistsim._gf2", "solve_symplectic"),
    ("jw.twist_modes", "twistsim.jw", "twist_modes"),
    ("jw.classify_modes", "twistsim.jw", "classify_modes"),
    ("jw.plaquette_images", "twistsim.jw", "plaquette_images"),
    ("jw.reduce_by_stabilizers", "twistsim.jw", "reduce_by_stabilizers"),
    ("lattice.build_lattice", "twistsim.lattice", "build_lattice"),
    ("lattice.all_plaquette_operators", "twistsim.lattice", "all_plaquette_operators"),
]

# Spans whose descendants matter for a ratio carry a flag bit that is ORed
# into every enclosing span when they close.
RANDOM, INIT_GROUND, COPIED = 1, 2, 4
_FLAG_BITS = {
    "kernels.measurement_update": RANDOM,  # the measurement was random
    "tableau.init_ground": INIT_GROUND,    # a backend construction missed the cache
    "tableau.copy": COPIED,                # an expectation query copied the tableau
}


def _row_bytes(x) -> int:
    return x.nbytes // x.shape[0]


# Bytes each kernel call reads and writes, computed from its array arguments
# (not measured). A row update reads row i and the pivot row of x and z and
# writes row i of x and z back: six rows, plus the sign byte read and written.
def _mask_bytes(x, z, px, pz):
    return x.nbytes + z.nbytes + px.nbytes + pz.nbytes + x.shape[0]


def _update_bytes(x, z, r, px, pz, pr, pivot, anti_rows, outcome_bit):
    rows = len(anti_rows) - 1
    return (6 * rows + 6) * _row_bytes(x) + 2 * rows


def _rowsum_bytes(x1, z1, x2, z2):
    return x1.nbytes + z1.nbytes + x2.nbytes + z2.nbytes


_BYTE_MODELS = {
    "kernels.anticommute_mask": _mask_bytes,
    "kernels.measurement_update": _update_bytes,
    "kernels.rowsum_phase": _rowsum_bytes,
}


class Tracer:
    """Install wrappers, collect spans per pass, reduce them to metrics."""

    def __init__(self):
        self.absent: list[str] = []
        self.byte_model_failed: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.job = -1
        self._reset()

    def _reset(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.flags: list[int] = []
        self.jobs: list[int] = []
        self.failed: list[bool] = []
        self.computed_bytes = 0
        self._stack = [-1]

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name):
        bit = _FLAG_BITS.get(name, 0)
        byte_model = _BYTE_MODELS.get(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        flags, jobs, failed, stack = self.flags, self.jobs, self.failed, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            flags.append(bit)
            jobs.append(tracer.job)
            failed.append(False)
            if byte_model is not None and name not in tracer.byte_model_failed:
                try:
                    tracer.computed_bytes += byte_model(*args, **kwargs)
                except (TypeError, AttributeError, IndexError, ZeroDivisionError):
                    tracer.byte_model_failed.add(name)
            stack.append(sid)
            t0 = process_time()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[sid] = True
                raise
            finally:
                t1 = process_time()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                parent = parents[sid]
                if parent >= 0:
                    flags[parent] |= flags[sid]

        return wrapper

    def install(self):
        """Wrap every target; targets that cannot be found go to ``absent``."""
        self._reset()
        self.absent = []
        modules = [m for key, m in sys.modules.items()
                   if key == "twistsim" or key.startswith("twistsim.")]
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            if outer:  # a method: callers find it through the class
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reduction -------------------------------------------------------------

    def pass_summary(self) -> dict:
        """Per-layer calls, self seconds and flag counts for the spans so far."""
        n = len(self.names)
        child_time = [0.0] * n
        for sid in range(n):
            parent = self.parents[sid]
            if parent >= 0:
                child_time[parent] += self.ends[sid] - self.starts[sid]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        flagged: dict[tuple[str, int], int] = {}
        for sid in range(n):
            name = self.names[sid]
            calls[name] = calls.get(name, 0) + 1
            own = self.ends[sid] - self.starts[sid] - child_time[sid]
            self_s[name] = self_s.get(name, 0.0) + own
            for bit in (RANDOM, INIT_GROUND, COPIED):
                if self.flags[sid] & bit:
                    flagged[(name, bit)] = flagged.get((name, bit), 0) + 1
        return {"calls": calls, "self_s": self_s, "flagged": flagged,
                "computed_bytes": self.computed_bytes, "spans": n}

    def spans(self) -> list[dict]:
        """The spans collected since the last ``install``."""
        return [{"id": sid, "parent": self.parents[sid], "name": self.names[sid],
                 "job": self.jobs[sid], "start": round(self.starts[sid], 7),
                 "end": round(self.ends[sid], 7), "failed": self.failed[sid]}
                for sid in range(len(self.names))]


def write_spans(path, header: dict, spans: list[dict]):
    """One JSON line of run information, then one line per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Median over passes of every per-layer figure, keyed by metric name."""
    def median(values):
        values = sorted(values)
        mid = len(values) // 2
        return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])

    def per_pass(fn):
        return median([fn(s) for s in summaries])

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = per_pass(lambda s: s["calls"].get(name, 0))
        out[f"{name}.s"] = per_pass(lambda s: s["self_s"].get(name, 0.0))

    def flagged(s, name, bit):
        return s["flagged"].get((name, bit), 0)

    out["tableau.measure.random"] = per_pass(
        lambda s: flagged(s, "tableau.measure", RANDOM))
    out["tableau.measure.deterministic"] = per_pass(
        lambda s: s["calls"].get("tableau.measure", 0)
        - flagged(s, "tableau.measure", RANDOM))
    out["tableau.measure.random_ratio"] = per_pass(
        lambda s: ratio(flagged(s, "tableau.measure", RANDOM),
                        s["calls"].get("tableau.measure", 0)))
    out["mbb.LatticeBackend.measure.random"] = per_pass(
        lambda s: flagged(s, "mbb.LatticeBackend.measure", RANDOM))
    out["mbb.lattice_setup.hit_ratio"] = per_pass(
        lambda s: ratio(s["calls"].get("mbb.LatticeBackend.init", 0)
                        - flagged(s, "mbb.LatticeBackend.init", INIT_GROUND),
                        s["calls"].get("mbb.LatticeBackend.init", 0)))
    out["tableau.expectation_sign.copy_ratio"] = per_pass(
        lambda s: ratio(flagged(s, "tableau.expectation_sign", COPIED),
                        s["calls"].get("tableau.expectation_sign", 0)))
    out["kernels.computed_bytes_per_measure"] = per_pass(
        lambda s: ratio(s["computed_bytes"], s["calls"].get("tableau.measure", 0)))
    out["trace.spans"] = per_pass(lambda s: s["spans"])
    return out

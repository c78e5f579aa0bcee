"""Span recorder and the wrappers that feed it from outside the package.

A span is (name, start, end, parent, task).  Spans are kept in flat arrays
in memory while a pass runs and are written out once, at exit.  The
layers are the ergopde modules; a span's layer is the part of its name
before the first dot, and its self time is its duration minus the
durations of its direct children (calls are sequential, so children never
overlap).

`instrument` wraps the public functions that one module calls in another.
Modules bind several of them by name (`from .grid import hessian_field`),
so every binding of a wrapped function in every ergopde module is
replaced, not only the one in the defining module, and all are restored on
exit.  The linear solves are counted at `scipy.linalg.solve_banded` and
`scipy.sparse.linalg.spsolve`, which the solver looks up on those modules at
each call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("ergodic", "solver", "grid", "operators", "oracle1d", "model", "cli")


class SpanRecorder:
    """Flat in-memory store of spans; one recorder per benchmark run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.tasks: list = []
        self._task_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.notes: dict = {}  # span index -> small JSON-ready value
        self._stack: list = []
        self._task = -1

    def __len__(self) -> int:
        return len(self.start)

    def set_task(self, label: str) -> None:
        """Spans opened from now on belong to the task `label`."""
        if label not in self._task_ids:
            self._task_ids[label] = len(self.tasks)
            self.tasks.append(label)
        self._task = self._task_ids[label]

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task_id.append(self._task)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        if failed:
            self.failed[idx] = 1
        self._stack.pop()

    def write(self, path, meta: dict) -> None:
        """Write every span to an .npz file (arrays plus name/task tables)."""
        import numpy as np

        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task_id=np.frombuffer(self.task_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            names=np.array(self.names, dtype=str),
            tasks=np.array(self.tasks, dtype=str),
            notes=np.array(json.dumps({str(k): v for k, v in self.notes.items()})),
            meta=np.array(json.dumps(meta)),
        )


def _wrap(rec: SpanRecorder, name: str, fn, note_args=None, note_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        if note_args is not None:
            rec.notes[idx] = note_args(args, kwargs)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, failed=True)
            raise
        rec.close(idx)
        if note_result is not None:
            rec.notes[idx] = note_result(out)
        return out

    return wrapper


def _c_of_solve_at(args, kwargs):
    return float(args[1] if len(args) > 1 else kwargs["c"])


def _verdict_labels(out):
    return [h["label"] for h in out[1]["classifications"]]


def _solve_counts(out):
    report = out[1]
    return [int(report.truncation_rounds), int(sum(report.iterations_per_stage))]


def _ergopde_modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "ergopde" or key.startswith("ergopde."))]


def _rebind(modules, original, wrapper, patches) -> None:
    """Point every module-level binding of `original` at `wrapper`."""
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is original:
                patches.append((m, key, original))
                setattr(m, key, wrapper)


@contextlib.contextmanager
def unit_timer(module, attr: str, durations: list):
    """Append the duration of every call of module.attr (all bindings) to `durations`.

    One float per call and nothing else: it splits a long task into the
    calls whose median times `run.pass_seconds` adds up.
    """
    original = getattr(module, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t0)

    patches = []
    try:
        _rebind(_ergopde_modules(), original, timed, patches)
        yield durations
    finally:
        for owner, key, value in reversed(patches):
            setattr(owner, key, value)


@contextlib.contextmanager
def raise_counter(module, attr: str, raised: list):
    """Append 1 to `raised` for every call of module.attr (all bindings) that raises.

    It sees the failures the program catches and recovers from, such as a
    Newton timeout read as a "below" verdict or a polish that falls back.
    """
    original = getattr(module, attr)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except Exception:
            raised.append(1)
            raise

    patches = []
    try:
        _rebind(_ergopde_modules(), original, counted, patches)
        yield raised
    finally:
        for owner, key, value in reversed(patches):
            setattr(owner, key, value)


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Wrap every binding of the measured functions while the block runs."""
    import scipy.linalg
    import scipy.sparse.linalg

    from ergopde import cli, ergodic, grid, model, operators, oracle1d, solver

    targets = (
        ("ergodic.estimate", ergodic, "estimate_ergodic_constant", None, _verdict_labels),
        ("ergodic.solve_at", ergodic, "solve_at", _c_of_solve_at, None),
        ("ergodic.verify", ergodic, "verify_blowup_profile", None, None),
        ("ergodic.verify", ergodic, "verify_gradient_rate", None, None),
        ("ergodic.verify", ergodic, "verify_uniqueness", None, None),
        ("solver.solve_dirichlet", solver, "solve_dirichlet", None, _solve_counts),
        ("grid.hessian_field", grid, "hessian_field", None, None),
        ("grid.gradient_field", grid, "gradient_field", None, None),
        ("grid.lipschitz_seminorm", grid, "lipschitz_seminorm", None, None),
        ("operators.eval_1d", operators, "eval_second_derivative_1d", None, None),
        ("operators.eval_2d", operators, "eval_hessian_2d", None, None),
        ("oracle1d.ergodic_constant_1d", oracle1d, "ergodic_constant_1d", None, None),
        ("oracle1d.shoot_blowup", oracle1d, "shoot_blowup", None, None),
        ("cli.main", cli, "main", None, None),
    )
    modules = _ergopde_modules()
    patches = []  # (owner, attribute, original), restored in reverse order
    try:
        for name, home, attr, note_args, note_result in targets:
            original = getattr(home, attr)
            _rebind(modules, original, _wrap(rec, name, original, note_args, note_result),
                    patches)
        for owner, attr in ((scipy.linalg, "solve_banded"),
                            (scipy.sparse.linalg, "spsolve")):
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, "solver.linear_solves", original))
        original = model.ScalarField.__call__
        patches.append((model.ScalarField, "__call__", original))
        model.ScalarField.__call__ = _wrap(rec, "model.field_eval", original)
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(rec: SpanRecorder, lo: int, hi: int) -> dict:
    """Per-layer metrics of the spans with index in [lo, hi) (one pass)."""
    names = rec.names
    dur = [rec.end[i] - rec.start[i] for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    calls = defaultdict(int)
    secs = defaultdict(float)
    fails = defaultdict(int)
    fail_secs = defaultdict(float)
    self_s = defaultdict(float)
    for k in range(hi - lo):
        p = rec.parent[lo + k]
        if p >= lo:
            child[p - lo] += dur[k]
    for k in range(hi - lo):
        i = lo + k
        name = names[rec.name_id[i]]
        calls[name] += 1
        secs[name] += dur[k]
        if rec.failed[i]:
            fails[name] += 1
            fail_secs[name] += dur[k]
        self_s[name.split(".", 1)[0]] += dur[k] - child[k]

    # verdicts: the solve_at calls of one estimate, grouped by c, in the
    # order of the estimate's classification history
    verdict_s = {"above": [], "below": []}
    solve_at_id = rec._name_ids.get("ergodic.solve_at")
    groups_of = defaultdict(list)  # estimate span -> [[c, seconds], ...]
    for k in range(hi - lo):
        i = lo + k
        p = rec.parent[i]
        if rec.name_id[i] == solve_at_id and p >= lo \
                and names[rec.name_id[p]] == "ergodic.estimate":
            groups = groups_of[p]
            c = rec.notes[i]
            if groups and groups[-1][0] == c:
                groups[-1][1] += dur[k]
            else:
                groups.append([c, dur[k]])
    classified = 0
    for est, groups in groups_of.items():
        labels = rec.notes.get(est) or []
        classified += len(groups)
        for (_, seconds), label in zip(groups, labels):
            verdict_s[label].append(seconds)

    rounds = iters = 0
    solve_id = rec._name_ids.get("solver.solve_dirichlet")
    for i in range(lo, hi):
        if rec.name_id[i] == solve_id and not rec.failed[i]:
            r, n = rec.notes[i]
            rounds += r
            iters += n

    def ratio(num, den):
        return num / den if den else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    out = {
        "ergodic.classify.count": classified,
        "ergodic.verdict_above.count": len(verdict_s["above"]),
        "ergodic.verdict_below.count": len(verdict_s["below"]),
        "ergodic.verdict_above.s_mean": mean(verdict_s["above"]),
        "ergodic.verdict_below.s_mean": mean(verdict_s["below"]),
        "ergodic.solve_at.calls": calls["ergodic.solve_at"],
        "ergodic.solve_at.failed": fails["ergodic.solve_at"],
        "ergodic.wasted_frac": ratio(fail_secs["ergodic.solve_at"],
                                     secs["ergodic.solve_at"]),
        "ergodic.verify.s": secs["ergodic.verify"],
        "solver.solve_dirichlet.calls": calls["solver.solve_dirichlet"],
        "solver.solve_dirichlet.failed": fails["solver.solve_dirichlet"],
        "solver.solve_dirichlet.s": secs["solver.solve_dirichlet"],
        "solver.truncation_rounds": rounds,
        "solver.inner_iters": iters,
        "solver.linear_solves.calls": calls["solver.linear_solves"],
        "solver.linear_solves.s": secs["solver.linear_solves"],
        "solver.residual_evals_per_linear_solve": ratio(
            calls["grid.hessian_field"], calls["solver.linear_solves"]),
        "grid.hessian_field.calls": calls["grid.hessian_field"],
        "grid.hessian_field.s": secs["grid.hessian_field"],
        "grid.hessian_field.us_per_call": 1e6 * ratio(
            secs["grid.hessian_field"], calls["grid.hessian_field"]),
        "grid.gradient_field.s": secs["grid.gradient_field"],
        "grid.lipschitz_seminorm.calls": calls["grid.lipschitz_seminorm"],
        "grid.lipschitz_seminorm.s": secs["grid.lipschitz_seminorm"],
        "operators.eval_1d.calls": calls["operators.eval_1d"],
        "operators.eval_1d.s": secs["operators.eval_1d"],
        "operators.eval_2d.calls": calls["operators.eval_2d"],
        "operators.eval_2d.s": secs["operators.eval_2d"],
        "oracle1d.ergodic_constant_1d.s": secs["oracle1d.ergodic_constant_1d"],
        "oracle1d.shoot_blowup.calls": calls["oracle1d.shoot_blowup"],
        "oracle1d.shoot_blowup.s": secs["oracle1d.shoot_blowup"],
        "oracle1d.evals_per_constant": ratio(
            calls["oracle1d.shoot_blowup"], calls["oracle1d.ergodic_constant_1d"]),
        "model.field_eval.calls": calls["model.field_eval"],
        "model.field_eval.s": secs["model.field_eval"],
        "trace.spans": hi - lo,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out

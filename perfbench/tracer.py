"""Span tracer that wraps csd1d's public functions from outside the package.

Every wrapped call records one span

    (span_id, parent_id, name, op_id, thread_id, start, end, cpu, info)

in an in-memory list.  ``parent_id`` is the innermost open span on the
same thread; the first span of a worker thread takes the current op's
root span as its parent.  ``cpu`` is the thread CPU time of spans that
are outermost on a worker thread (None elsewhere), so that time a pool
thread spends waiting for the interpreter lock shows.  ``info`` holds
work counts read from the call's result (iterations, cell-steps, rows).

A name is patched in the namespace of every csd1d module that holds it,
because ``suites``, ``diagnostics`` and ``cli`` import with
``from .solver import ...``.
"""

from __future__ import annotations

import gzip
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SUITES = ("bilinear", "intrinsic", "finite_speed", "localization",
          "contraction", "scaling", "charge", "concentration")
DIAGNOSTICS = ("charge_series", "intrinsic_bound_report", "corollary_envelope_report",
               "concentration_monitor", "finite_speed_check", "localization_check",
               "scaling_check")
SOLVES = ("solver.solve_global", "solver.picard_slab", "solver.march",
          "solver.solve_decomposed")
CONFIG_LOAD = ("config.load_config", "config.from_dict")
# layers whose spans count as busy work inside the verify thread pool
BUSY_LAYERS = ("solver.", "diagnostics.", "transport.", "physics.", "lattice.")


def _cell_steps(traj) -> int:
    return traj.n_steps * traj.grid.n_cells


def _describe_picard_slab(args, kwargs, result, exc):
    history = result[1] if exc is None else getattr(exc, "history", [])
    cells = _cell_steps(result[0]) if exc is None else 0
    return {"iters": len(history), "cell_steps": cells}


def _describe_solve_global(args, kwargs, result, exc):
    if exc is not None:
        return {"cell_steps": 0, "accepted": 0}
    return {"cell_steps": _cell_steps(result), "accepted": len(result.slab_histories)}


def _describe_solve(args, kwargs, result, exc):
    return {"cell_steps": 0 if exc is not None else _cell_steps(result)}


def _describe_run_suite(args, kwargs, result, exc):
    name = args[0] if args else kwargs.get("name")
    rows = result or []
    return {"suite": name, "rows": len(rows),
            "rows_failed": sum(1 for r in rows if not r["pass"])}


# (module, attribute, describe)
TARGETS = (
    ("config", "load_config", None),
    ("config", "build_initial_state", None),
    ("physics", "generate_data", None),
    ("physics", "diagonalize", None),
    ("physics", "coupling_values", None),
    ("lattice", "shift_values", None),
    ("transport", "solve_transport", None),
    ("transport", "spacetime_lp_norm", None),
    ("transport", "bilinear_bound_check", None),
    ("transport", "check_containment", None),
    ("solver", "solve_global", _describe_solve_global),
    ("solver", "picard_slab", _describe_picard_slab),
    ("solver", "march", _describe_solve),
    ("solver", "solve_decomposed", _describe_solve),
    *(("diagnostics", name, None) for name in DIAGNOSTICS),
    ("suites", "run_suite", _describe_run_suite),
)


class Tracer:
    """Install with ``with tracer.installed(): ...``; wrap each op in
    ``with tracer.op(name): ...``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self.op_id = 0
        self.root = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, describe):
        append = self.spans.append
        ids = self._ids
        stacks = self._stacks
        clock = time.perf_counter
        cpu_clock = time.thread_time
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            outermost = not stack
            parent = stack[-1] if stack else tracer.root
            sid = next(ids)
            stack.append(sid)
            cpu0 = cpu_clock() if outermost else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                cpu = cpu_clock() - cpu0 if outermost else None
                stack.pop()
                info = describe(args, kwargs, None, exc) if describe else None
                append((sid, parent, name, tracer.op_id, tid, t0, t1, cpu, info))
                raise
            t1 = clock()
            cpu = cpu_clock() - cpu0 if outermost else None
            stack.pop()
            info = describe(args, kwargs, result, None) if describe else None
            append((sid, parent, name, tracer.op_id, tid, t0, t1, cpu, info))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def installed(self):
        """Patch every target in every csd1d module namespace that holds
        it (and RunConfig.from_dict on its class); undo on exit."""
        pkg = sys.modules["csd1d"]
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "csd1d" or key.startswith("csd1d."))]
        undo = []
        for mod_name, attr, describe in TARGETS:
            orig = getattr(sys.modules[f"csd1d.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig, describe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, orig))
        run_config = pkg.RunConfig
        orig_from_dict = run_config.__dict__["from_dict"]
        run_config.from_dict = classmethod(
            self._wrap("config.from_dict", orig_from_dict.__func__, None))
        try:
            yield self
        finally:
            run_config.from_dict = orig_from_dict
            for mod, key, orig in reversed(undo):
                setattr(mod, key, orig)

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark op, opened on the calling thread."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        sid = next(self._ids)
        self.op_id = sid
        self.root = sid
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, 0, name, sid, tid, t0, t1, None, None))
            self.root = 0

    def write(self, path) -> None:
        """Write every span as one CSV line (gzip-compressed)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,op,thread,start_s,end_s,cpu_s,info\n")
            for sid, parent, name, op, tid, t0, t1, cpu, info in self.spans:
                info_s = "" if info is None else ";".join(f"{k}={v}" for k, v in info.items())
                cpu_s = "" if cpu is None else repr(cpu)
                fh.write(f"{sid},{parent},{name},{op},{tid},{t0!r},{t1!r},{cpu_s},{info_s}\n")


# -- aggregation -------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its children on the
    same thread (children are nested and sequential per thread)."""
    tid_of = {s[0]: s[4] for s in spans}
    self_t = {s[0]: s[6] - s[5] for s in spans}
    for sid, parent, _, _, tid, t0, t1, _, _ in spans:
        if parent in self_t and tid_of[parent] == tid:
            self_t[parent] -= t1 - t0
    return self_t


def layer_metrics(spans, wall_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans.  Inclusive times
    (``_s``) sum the outermost span of each name per thread, so recursion
    is not double counted; ``_self_s`` subtracts same-thread children."""
    by_id = {s[0]: s for s in spans}
    self_t = self_times(spans)

    def ancestors(span):
        parent = by_id.get(span[1])
        while parent is not None:
            yield parent
            parent = by_id.get(parent[1])

    incl = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    config_load = 0.0
    delivered_cells = 0
    picard_iters = 0
    slab_attempts = 0
    slab_accepted = 0
    march_cells = 0
    suite_s = defaultdict(float)
    rows = rows_failed = 0
    busy_cpu = 0.0
    for span in spans:
        sid, parent, name, _, tid, t0, t1, cpu, info = span
        calls[name] += 1
        self_s[name] += self_t[sid]
        anc = list(ancestors(span))
        if not any(a[2] == name and a[4] == tid for a in anc):
            incl[name] += t1 - t0
        if name in SOLVES and not any(a[2] in SOLVES for a in anc):
            delivered_cells += info["cell_steps"]
        if name in CONFIG_LOAD and not any(a[2] in CONFIG_LOAD for a in anc):
            config_load += t1 - t0
        if name == "solver.picard_slab":
            picard_iters += info["iters"]
            if by_id.get(parent, (0, 0, ""))[2] == "solver.solve_global":
                slab_attempts += 1
        elif name == "solver.solve_global":
            slab_accepted += info["accepted"]
        elif name == "solver.march":
            march_cells += info["cell_steps"]
        elif name == "suites.run_suite":
            if info["suite"] in SUITES:
                suite_s[info["suite"]] += t1 - t0
            if not any(a[2] == name for a in anc):
                rows += info["rows"]
                rows_failed += info["rows_failed"]
        if cpu is not None and name.startswith(BUSY_LAYERS):
            busy_cpu += cpu

    ops = [s for s in spans if s[1] == 0]
    main_tid = ops[0][4] if ops else None
    main_self = sum(self_t[s[0]] for s in spans if s[4] == main_tid)
    pool_wall = sum(suite_s.values())
    m = {
        "config.load_s": config_load,
        "config.build_initial_state_s": incl["config.build_initial_state"],
        "physics.generate_data_s": incl["physics.generate_data"],
        "physics.generate_data_calls": calls["physics.generate_data"],
        "physics.coupling_values_s": incl["physics.coupling_values"],
        "physics.coupling_values_calls": calls["physics.coupling_values"],
        "lattice.shift_values_s": incl["lattice.shift_values"],
        "lattice.shift_values_calls": calls["lattice.shift_values"],
        "solver.cell_steps": delivered_cells,
        "solver.solve_global_s": incl["solver.solve_global"],
        "solver.solve_global_calls": calls["solver.solve_global"],
        "solver.picard_slab_s": incl["solver.picard_slab"],
        "solver.picard_slab_self_s": self_s["solver.picard_slab"],
        "solver.picard_slab_calls": calls["solver.picard_slab"],
        "solver.picard_iters": picard_iters,
        "solver.picard_iter_s": self_s["solver.picard_slab"] / picard_iters if picard_iters else 0.0,
        "solver.slab_attempts": slab_attempts,
        "solver.slab_rejects": slab_attempts - slab_accepted,
        "solver.slab_accept_ratio": slab_accepted / slab_attempts if slab_attempts else 0.0,
        "solver.march_s": incl["solver.march"],
        "solver.march_calls": calls["solver.march"],
        "solver.march_cell_steps": march_cells,
        "solver.march_cell_steps_per_s": (march_cells / incl["solver.march"]
                                          if incl["solver.march"] else 0.0),
        "solver.solve_decomposed_s": incl["solver.solve_decomposed"],
        "solver.solve_decomposed_calls": calls["solver.solve_decomposed"],
        "transport.spacetime_lp_norm_s": incl["transport.spacetime_lp_norm"],
        "transport.spacetime_lp_norm_calls": calls["transport.spacetime_lp_norm"],
        "transport.solve_transport_s": incl["transport.solve_transport"],
        "transport.solve_transport_calls": calls["transport.solve_transport"],
        "transport.bilinear_bound_check_s": incl["transport.bilinear_bound_check"],
        "transport.bilinear_bound_check_calls": calls["transport.bilinear_bound_check"],
        "transport.check_containment_s": incl["transport.check_containment"],
        "transport.check_containment_calls": calls["transport.check_containment"],
    }
    for name in DIAGNOSTICS:
        m[f"diagnostics.{name}_self_s"] = self_s[f"diagnostics.{name}"]
    for suite in SUITES:
        m[f"suites.{suite}_s"] = suite_s[suite]
    m["suites.rows"] = rows
    m["suites.rows_failed"] = rows_failed
    m["suites.busy_ratio"] = busy_cpu / (pool_wall * workers) if pool_wall else 0.0
    m["cli.artifact_s"] = sum(self_t[s[0]] for s in ops)
    m["trace.spans"] = len(spans)
    m["trace.self_coverage_frac"] = main_self / wall_s if wall_s else 0.0
    return m


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

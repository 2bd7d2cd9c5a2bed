"""In-memory spans around conemv's entry points, and the per-layer metrics
derived from them.

A span records its name, start, end, parent span and a dict of
attributes.  Spans stay in memory and are written out once, when the run
ends.  The wrappers are installed from the benchmark's own files by
replacing module and class attributes of the imported ``conemv`` package;
nothing under ``src/`` is edited.  An entry point that has disappeared
raises :class:`EntryPointMissing` at install time, so a renamed helper
can never read as zero.

Self time is a span's duration minus the part of its interval covered by
its child spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import sys
import time
from collections import defaultdict

# span fields
NAME, START, END, PARENT, ATTRS = range(5)


class EntryPointMissing(RuntimeError):
    """A wrapped conemv entry point no longer exists."""


class EntryPointUnhit(RuntimeError):
    """A workload finished without reaching an entry point it must reach."""


class Tracer:
    """Single-threaded span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} is open")

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name, **attrs)
        try:
            yield self.spans[idx][ATTRS]
        finally:
            self.close(idx)

    def current(self):
        return self._stack[-1] if self._stack else None

    def merge(self, foreign: list, parent) -> None:
        """Append spans recorded by another process under ``parent``.

        Timestamps come from ``time.perf_counter``, which on Linux reads
        the system-wide monotonic clock, so child and parent intervals
        share one time axis.
        """
        offset = len(self.spans)
        for name, start, end, p, attrs in foreign:
            self.spans.append([name, start, end,
                               parent if p is None else p + offset, attrs])


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Duration minus child coverage, for every span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(spans[c][START], spans[c][END]) for c in children[i]]
        out.append((s[END] - s[START]) - covered_length(kids, s[START], s[END]))
    return out


def has_ancestor(spans, idx: int, names) -> bool:
    p = spans[idx][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, counting nested same-name spans once."""
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if not has_ancestor(spans, i, (s[NAME],)):
            out[s[NAME]] += s[END] - s[START]
    return out


# ---------------------------------------------------------------------------
# wrapped entry points
# ---------------------------------------------------------------------------

def _law_id(period) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(period.family.encode())
    for arr in (period.mean, period.cov, period.atoms, period.probs):
        if arr is not None:
            h.update(arr.tobytes())
    h.update(repr(period.df).encode())
    return h.hexdigest()


def _describe_uniform_block(args, result):
    return {"uniforms": int(result.shape[0] * result.shape[1])}


def _describe_sample_block(args, result):
    # PeriodDistribution.sample_block(self, seed, stream, period, lo, hi),
    # called positionally throughout conemv
    period, seed, stream, t, lo, hi = args
    return {"key": [_law_id(period), int(seed), int(stream), int(t), int(lo),
                    int(hi)],
            "rows": int(hi - lo), "n": int(period.n_assets)}


def _describe_cost_eval(args, result):
    # solver._h_and_grad(pts, w, sign, k, c_plus, c_minus), always positional
    pts = args[0]
    return {"rows": int(pts.shape[0]), "n": int(pts.shape[1])}


def _describe_table(args, table):
    diags = [d for d in table.diagnostics if "method" in d]
    return {"iterations": int(sum(d["iterations"] for d in diags)),
            "minimizations": len(diags),
            "zero_tests": sum(d["method"] == "zero_test" for d in diags)}


def _describe_tree(args, result):
    return {"paths": len(result[2])}


# (span name, module, attribute path, attribute describer or None)
ENTRY_POINTS = (
    ("rng.uniform_block", "conemv.rng", "uniform_block", _describe_uniform_block),
    ("market.sample_block", "conemv.market", "PeriodDistribution.sample_block",
     _describe_sample_block),
    ("market.ndtri", "conemv.market", "ndtri", None),
    ("market.gammaincinv", "conemv.market", "gammaincinv", None),
    ("solver.backward_recursion", "conemv.solver", "backward_recursion",
     _describe_table),
    ("solver.minimize_over_cone", "conemv.solver", "minimize_over_cone", None),
    # Private: the cost evaluator has no public boundary yet.  If it is
    # renamed or folded away, installing fails loudly (EntryPointMissing).
    ("solver.cost_eval", "conemv.solver", "_h_and_grad", _describe_cost_eval),
    ("solver.linear_form", "conemv.solver", "linear_form", None),
    ("cones.project", "conemv.cones", "ConvexCone.project", None),
    ("cones.polar_contains", "conemv.cones", "ConvexCone.polar_contains", None),
    ("policy.control", "conemv.policy", "Policy.control", None),
    ("sim.simulate", "conemv.sim", "simulate", None),
    ("sim.sample_returns", "conemv.sim", "sample_returns", None),
    ("vssm.density_for_paths", "conemv.vssm", "density_for_paths", None),
    ("vssm.enumerate_tree", "conemv.vssm", "enumerate_tree", _describe_tree),
    ("vssm.exact_density_moments", "conemv.vssm", "exact_density_moments", None),
    ("vssm.supermartingale_check", "conemv.vssm", "supermartingale_check", None),
    ("tcie.check_tcie", "conemv.tcie", "check_tcie", None),
    ("tcie.transition_probs", "conemv.tcie", "transition_probs", None),
    ("config.parse_config", "conemv.config", "parse_config", None),
    ("cli.main", "conemv.cli", "main", None),
)


def _make_wrapper(tracer: Tracer, name: str, fn, describe):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.spans[idx][ATTRS]["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(idx)
        if describe is not None:
            tracer.spans[idx][ATTRS].update(describe(args, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """Context manager that wraps every entry point in ENTRY_POINTS.

    Module-level functions are replaced in the defining module and under
    every other name a loaded ``conemv`` module binds them to (``from .x
    import f`` copies), so calls through any import path are seen.
    Methods are replaced on their class.  Everything is restored on exit.
    """

    def __init__(self, tracer: Tracer, entry_points=ENTRY_POINTS,
                 package: str = "conemv"):
        self.tracer = tracer
        self.entry_points = entry_points
        self.package = package
        self._undo: list = []

    def __enter__(self):
        try:
            for name, module_name, path, describe in self.entry_points:
                self._install(name, module_name, path, describe)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, name, module_name, path, describe):
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise EntryPointMissing(
                f"span {name!r}: module {module_name} cannot be imported "
                f"({exc}); update perfbench/spans.py") from exc
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if owner is None or attr not in vars(owner):
            raise EntryPointMissing(
                f"span {name!r}: {module_name}.{path} no longer exists; "
                f"update perfbench/spans.py ENTRY_POINTS")
        original = vars(owner)[attr]
        wrapper = _make_wrapper(self.tracer, name, original, describe)
        if owner is not module:  # a method on a class
            self._set(owner, attr, wrapper, original)
            return
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper, original)

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def check_hits(spans, required, workload: str) -> None:
    """Raise EntryPointUnhit if any required span name never occurred."""
    seen = {s[NAME] for s in spans}
    missing = sorted(set(required) - seen)
    if missing:
        raise EntryPointUnhit(
            f"workload {workload}: traced run never reached {missing}; an "
            f"entry point was renamed or bypassed, update perfbench/spans.py")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, rounds: int, setup: dict, overhead_frac: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Totals (counts and times) are per traced round, so runs that fit a
    different number of rounds into their time budget stay comparable;
    ratios are taken over the whole traced run.  ``setup`` carries the
    fresh-interpreter figures (import, config parse, scipy.optimize
    import time) measured outside the spans.

    The times of entry points that only some workloads reach
    (``market.ndtri.s``, ``market.gammaincinv.s``, ``sim.sample_returns.s``,
    ``vssm.enumerate_tree.s``, ``vssm.supermartingale_check.self_s``,
    ``cli.command_self_s``) read 0 elsewhere; BENCHMARK.json declares their
    call counts instead, and the traced run prints both.
    """
    from conemv.rng import STREAM_SAA

    selfs = self_times(spans)
    totals = inclusive_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def calls(name):
        return len(by_name[name])

    def incl(name):
        return totals.get(name, 0.0)

    def self_s(name):
        return sum(selfs[i] for i in by_name[name])

    def attr_sum(name, key):
        return sum(spans[i][ATTRS].get(key, 0) for i in by_name[name])

    per = 1.0 / max(rounds, 1)
    m: dict[str, tuple[float, str]] = {}

    # rng
    m["rng.uniform_block.s"] = (incl("rng.uniform_block") * per, "s")
    m["rng.uniforms_per_s"] = (_ratio(attr_sum("rng.uniform_block", "uniforms"),
                                      incl("rng.uniform_block")), "1/s")

    # market
    draws = [spans[i][ATTRS] for i in by_name["market.sample_block"]
             if "key" in spans[i][ATTRS]]
    seen, repeats = set(), 0
    saa_groups = defaultdict(int)
    for d in draws:
        key = tuple(d["key"])
        repeats += key in seen
        seen.add(key)
        law, seed, stream = key[:3]
        if stream == STREAM_SAA:
            saa_groups[(law, seed, key[3])] = max(saa_groups[(law, seed, key[3])],
                                                  d["rows"] * d["n"] * 8)
    frozen = defaultdict(int)
    for (law, seed, _period), nbytes in saa_groups.items():
        frozen[(law, seed)] += nbytes
    m["market.sample_block.calls"] = (calls("market.sample_block") * per, "count")
    m["market.sample_block.self_s"] = (self_s("market.sample_block") * per, "s")
    m["market.ndtri.calls"] = (calls("market.ndtri") * per, "count")
    m["market.ndtri.s"] = (incl("market.ndtri") * per, "s")
    m["market.gammaincinv.calls"] = (calls("market.gammaincinv") * per, "count")
    m["market.gammaincinv.s"] = (incl("market.gammaincinv") * per, "s")
    m["market.rows_drawn"] = (sum(d["rows"] for d in draws) * per, "count")
    m["market.repeat_draw_share"] = (_ratio(repeats, len(draws)), "share")
    m["market.frozen_sample_mib"] = (max(frozen.values(), default=0) / 2**20,
                                     "MiB")

    # solver
    iterations = attr_sum("solver.backward_recursion", "iterations")
    minimizations = attr_sum("solver.backward_recursion", "minimizations")
    evals = calls("solver.cost_eval")
    rows = attr_sum("solver.cost_eval", "rows")
    nbytes = sum(spans[i][ATTRS].get("rows", 0) * spans[i][ATTRS].get("n", 0) * 8
                 for i in by_name["solver.cost_eval"])
    m["solver.backward_recursion.self_s"] = (
        self_s("solver.backward_recursion") * per, "s")
    m["solver.minimize_over_cone.calls"] = (
        calls("solver.minimize_over_cone") * per, "count")
    m["solver.minimize_over_cone.self_s"] = (
        self_s("solver.minimize_over_cone") * per, "s")
    m["solver.iterations"] = (iterations * per, "count")
    m["solver.zero_test_share"] = (
        _ratio(attr_sum("solver.backward_recursion", "zero_tests"),
               minimizations), "share")
    m["solver.cost_evals"] = (evals * per, "count")
    m["solver.cost_eval.s"] = (incl("solver.cost_eval") * per, "s")
    m["solver.cost_eval_rows_per_s"] = (_ratio(rows, incl("solver.cost_eval")),
                                        "1/s")
    # computed, not measured: bytes of the sample matrix each evaluation reads
    m["solver.cost_eval_bytes"] = (nbytes * per, "B_computed")
    m["solver.evals_per_iteration"] = (_ratio(evals, iterations), "ratio")
    m["solver.linear_form.s"] = (incl("solver.linear_form") * per, "s")

    # cones
    project_calls = calls("cones.project")
    m["cones.project.calls"] = (project_calls * per, "count")
    m["cones.project.s"] = (incl("cones.project") * per, "s")
    m["cones.project.us_per_call"] = (
        1e6 * _ratio(incl("cones.project"), project_calls), "us")
    m["cones.project.failures"] = (
        sum("error" in spans[i][ATTRS] for i in by_name["cones.project"]) * per,
        "count")
    m["cones.polar_contains.calls"] = (calls("cones.polar_contains") * per,
                                       "count")
    m["cones.polar_contains.s"] = (incl("cones.polar_contains") * per, "s")

    # policy
    m["policy.control.calls"] = (calls("policy.control") * per, "count")
    m["policy.control.s"] = (incl("policy.control") * per, "s")

    # sim
    sim_total = incl("sim.simulate")
    sampled_in_sim = sum(spans[i][END] - spans[i][START]
                         for i in by_name["market.sample_block"]
                         if has_ancestor(spans, i, {"sim.simulate"}))
    m["sim.simulate.self_s"] = (self_s("sim.simulate") * per, "s")
    m["sim.sample_share"] = (_ratio(sampled_in_sim, sim_total), "share")
    m["sim.sample_returns.calls"] = (calls("sim.sample_returns") * per, "count")
    m["sim.sample_returns.s"] = (incl("sim.sample_returns") * per, "s")

    # vssm
    m["vssm.density_for_paths.s"] = (incl("vssm.density_for_paths") * per, "s")
    m["vssm.enumerate_tree.calls"] = (calls("vssm.enumerate_tree") * per, "count")
    m["vssm.enumerate_tree.s"] = (incl("vssm.enumerate_tree") * per, "s")
    m["vssm.supermartingale_check.calls"] = (
        calls("vssm.supermartingale_check") * per, "count")
    m["vssm.supermartingale_check.self_s"] = (
        self_s("vssm.supermartingale_check") * per, "s")
    m["vssm.tree_paths"] = (attr_sum("vssm.enumerate_tree", "paths") * per,
                            "count")

    # tcie
    m["tcie.check_tcie.s"] = (incl("tcie.check_tcie") * per, "s")
    m["tcie.transition_probs.s"] = (incl("tcie.transition_probs") * per, "s")

    # cli / config (fresh interpreters, outside the spans)
    m["cli.import_s"] = (setup["import_s"], "s")
    m["cli.import_scipy_optimize_s"] = (setup["import_scipy_optimize_s"], "s")
    m["config.parse_config.s"] = (setup["parse_s"], "s")
    m["cli.main.calls"] = (calls("cli.main") * per, "count")
    m["cli.command_self_s"] = (self_s("cli.main") * per, "s")

    m["trace.overhead_frac"] = (overhead_frac, "share")
    return m


"""conemv benchmark: three workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is one of saa_gauss_halfspace, cli_t_limited_short,
tree_sweep, or ``all``: the three in turn, each in its own child
``run.py`` process so that each reports its own peak RSS, merged into one
result.  A workload runs rounds over its corpus of generated inputs for
``--seconds`` seconds, then on to the end of the corpus sweep it is in,
so that every run reports the same share of failed operations.  Between
the rounds of the first sweep, and after it, it is set up SETUP_REPS times
in fresh interpreters (import ``conemv.cli``, parse the workload's
config, build its backend); set-up time does not count against the
rounds' seconds.  Every operation's output is checked; failures are
counted, never fatal.

With ``--trace 0`` the rounds run untraced and the end-to-end metrics
are printed.  With ``--trace 1`` each round runs twice on the same
inputs, untraced and then with every conemv entry point wrapped in a
span; the per-layer metrics come from the spans and the tracing overhead
from the paired wall times.  Spans and a full result file are written to
``.perfbench/`` at the end of the run.

Every line but the last is for people.  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9
IMPORTTIME_REPS = 3
NPROC = len(os.sched_getaffinity(0))

# BLAS runs one thread in the driving process and, by inheritance, in every
# CLI child.  With two BLAS threads on a 2-core machine shared with other
# load, identical solves varied by 20% between runs; with one, by 7%.
# Must run before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# set-up: fresh interpreters
# ---------------------------------------------------------------------------

def run_setup(wl, env) -> dict:
    """One fresh-interpreter set-up: its wall time and the child's own
    import and config-parse times."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup",
           str(wl.config_path), str(wl.setup_samples)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up of {wl.name} failed: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    return {"setup_s": wall, "import_s": info["import_s"],
            "parse_s": info["parse_s"]}


def summarize_setups(setups: list[dict]) -> dict:
    med = statistics.median
    return {"reps": len(setups),
            **{k: med(s[k] for s in setups) for k in ("setup_s", "import_s",
                                                      "parse_s")}}


def scipy_optimize_import_s(env, reps: int) -> float:
    """Cumulative import time of scipy.optimize under `import conemv.cli`,
    from ``python -X importtime``; 0 when conemv.cli does not import it."""
    values = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import conemv.cli"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"importing conemv.cli failed: {proc.stderr[-500:]}")
        micros = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                micros = int(fields[1])
        values.append(micros / 1e6)
    return statistics.median(values)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(wl, env, seconds: float, trace: bool):
    """Rounds for ``seconds`` of round time and on to the end of a corpus
    sweep, with SETUP_REPS set-ups spread evenly between the rounds of the
    first sweep and after it, so the set-up median sees the same machine
    as the rounds."""
    from spans import Instrumentation, Tracer, check_hits
    from workloads import Ledger

    plain = Ledger()
    tracer = Tracer() if trace else None
    traced = Ledger(tracer) if trace else None
    walls, traced_walls, setups = [], [], []
    setup_time = 0.0
    begin = time.perf_counter()

    def round_time():
        return time.perf_counter() - begin - setup_time

    r = 0
    while r == 0 or round_time() < seconds or r % wl.corpus_size:
        while (r < wl.corpus_size
               and len(setups) < SETUP_REPS * (r + 1) // (wl.corpus_size + 1)):
            setups.append(run_setup(wl, env))
            setup_time += setups[-1]["setup_s"]
        gc.collect()
        plain.start_round()
        start = time.perf_counter()
        wl.run_round(r, plain)
        walls.append(time.perf_counter() - start)
        if trace:
            gc.collect()
            traced.start_round()
            with Instrumentation(tracer):
                start = time.perf_counter()
                with tracer.span("bench.round", round=r):
                    wl.run_round(r, traced, tracer)
                traced_walls.append(time.perf_counter() - start)
        r += 1
    while len(setups) < SETUP_REPS:
        setups.append(run_setup(wl, env))
    if trace:
        check_hits(tracer.spans, wl.required_spans, wl.name)
    return summarize_setups(setups), plain, traced, tracer, walls, traced_walls


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def tail_percentile(values):
    """Highest whole percentile with at least ten values above it."""
    n = len(values)
    if n <= 10:
        return None, None
    pct = int(100 * (n - 10) / n)
    while pct > 0 and sum(v > _percentile(values, pct) for v in values) < 10:
        pct -= 1
    return pct, _percentile(values, pct)


def _percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def round_median(wl, walls) -> float:
    """Median round time, each distinct input counted once (by the median of
    its repeats)."""
    by_input = {}
    for r, wall in enumerate(walls):
        by_input.setdefault(wl.input_key(r), []).append(wall)
    return statistics.median(statistics.median(v) for v in by_input.values())


def end_to_end(wl, setup: dict, ledger, walls) -> dict:
    """{name: (value, unit, note)} for every end-to-end metric of wl."""
    med = statistics.median
    m = {
        "setup_s": (setup["setup_s"], "s", f"median of {setup['reps']} set-ups"),
        "wall_s": (round_median(wl, walls), "s",
                   f"median over the inputs of {len(walls)} rounds"),
        "peak_rss_mib": (peak_rss_mib(), "MiB", "max over the run's processes"),
    }
    times = ledger.times
    if "solve" in times and wl.name != "cli_t_limited_short":
        solves = times["solve"]
        m["solve_s_p50"] = (med(solves), "s", f"n={len(solves)} successful solves")
        if wl.name == "tree_sweep":
            pct, value = tail_percentile(solves)
            if pct is not None:
                m["solve_s_tail"] = (value, "s", f"p{pct}, n={len(solves)}")
    if wl.name == "saa_gauss_halfspace":
        for op, metric in (("simulate", "sim_paths_per_s"),
                           ("density", "density_paths_per_s")):
            if times[op]:
                m[metric] = (med(wl.paths / t for t in times[op]), "1/s",
                             f"median of {len(times[op])} calls, "
                             f"{wl.paths} paths each")
    if wl.name == "tree_sweep":
        audits = [rd["tcie"] + rd["density_moments"] + rd["supermartingale"]
                  for rd in ledger.rounds]
        m["audit_s_p50"] = (med(audits), "s", f"n={len(audits)} markets")
    if wl.name == "cli_t_limited_short":
        for cmd, _ in wl.commands:
            runs = times["cli_" + cmd]
            if runs:
                m[f"cli_{cmd}_s"] = (med(runs), "s", f"median of {len(runs)} processes")
    m["failed_frac"] = (ledger.failed / max(ledger.attempted, 1), "share",
                        f"{ledger.failed} of {ledger.attempted} operations")
    return m


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _blas() -> dict:
    import ctypes

    import numpy as np
    info = {"threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _llc_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def metadata(args, wl) -> dict:
    import numpy as np
    import scipy

    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "nproc": NPROC, "cpu_count": os.cpu_count(), "blas": _blas(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_sha": sha,
        "src_sha256": digest.hexdigest(), "src_lines": lines,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "llc_bytes": _llc_bytes(),
        "working_set_bytes": wl.working_set_bytes(),
        "cli_children": "one at a time",
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _fmt(name, value, unit, note=""):
    return f"  {name:<36} {value:>16.6g} {unit:<10} {note}".rstrip()


def run_workload(wl, args, env, outdir: Path) -> dict:
    from spans import layer_metrics

    setup, plain, traced, tracer, walls, traced_walls = measure(
        wl, env, args.seconds, args.trace)
    if args.trace:
        setup["import_scipy_optimize_s"] = scipy_optimize_import_s(env, IMPORTTIME_REPS)
    e2e = end_to_end(wl, setup, plain, walls)
    print(f"# {wl.name}: seed {args.seed}, {len(walls)} untraced rounds"
          + (f", {len(traced_walls)} traced rounds" if args.trace else ""))
    for name, (value, unit, note) in e2e.items():
        print(_fmt(name, value, unit, note))
    ledgers = [plain] + ([traced] if args.trace else [])
    failures = [f for lg in ledgers for f in lg.failures]
    for op in sorted({f.split(":", 1)[0] for f in failures}):
        same = [f for f in failures if f.split(":", 1)[0] == op]
        print(f"  FAILED x{len(same)} {same[0]}")
    result = {
        "correct": all(lg.wrong == 0 for lg in ledgers),
        "attempted": sum(lg.attempted for lg in ledgers),
        "failed": sum(lg.failed for lg in ledgers),
    }
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        layers = layer_metrics(tracer.spans, len(traced_walls), setup, overhead)
        result["metrics"] = declared(layers, "per_layer")
        print(f"# {wl.name}: per-layer metrics, per traced round unless a ratio")
        for name, (value, unit) in layers.items():
            print(_fmt(name, value, unit, "" if name in result["metrics"]
                       else "(not in BENCHMARK.json)"))
        spans_path = outdir / f"spans-{wl.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
    else:
        result["metrics"] = declared(e2e, "end_to_end")
    result["all_metrics"] = {k: {"value": v, "unit": u, "note": n}
                             for k, (v, u, n) in e2e.items()}
    result["round_walls"] = {"untraced": walls, "traced": traced_walls}
    result["failures"] = failures
    return result


def declared(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, from ``values``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    out = {}
    for item in spec:
        if item["name"] not in values:
            raise BenchError(f"BENCHMARK.json declares {kind} metric "
                             f"{item['name']!r}, which this run did not measure")
        value, unit = values[item["name"]][:2]
        if unit != item["unit"]:
            raise BenchError(f"{item['name']}: measured in {unit}, declared "
                             f"in {item['unit']}")
        out[item["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conemv" / "__init__.py").is_file():
        print(f"error: no conemv sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import EntryPointMissing, EntryPointUnhit
    from workloads import WORKLOADS, child_env

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    env = child_env(ROOT)
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, outdir)
        meta = metadata(args, wl)
        print("# meta " + json.dumps(meta))
        res = run_workload(wl, args, env, outdir)
    except (BenchError, EntryPointMissing, EntryPointUnhit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (outdir / f"result-{stem}.json").write_text(
        json.dumps({"meta": meta, "result": res}, indent=1))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                           "metrics")}))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own child run.py, one after another; prints
    their lines and then one merged result, metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
            timeout=10 * args.seconds + 600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        res = json.loads(last)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qsuperpose benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
seeded ops again with span wrappers installed and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json at the repository
root.  The program under test is the source tree in ``src/``, run as fresh
``python -m qsuperpose.cli`` processes (cli-mix, verify-sweep) or in one
long-lived library process (oracle-scale).  Every output is checked against
closed forms this benchmark recomputes itself; a wrong output counts as a
failed op and makes the command exit 1.  The generated ops, the per-op
records, the environment and every metric land in
``.perfbench-out/<workload>/seed<seed>-trace<t>/``.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import closedforms
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: cold ``import qsuperpose.cli`` processes timed for set-up
CLI_SETUP_RUNS = 7
#: set-up-only library processes, besides the measuring one
WORKER_SETUP_RUNS = 3
#: a CLI op still running after this long is killed and counted as a crash
OP_TIMEOUT_S = 120
#: traced runs take this many ops from the start of the stream: one whole
#: block, so every layer of the workload runs, or two verify processes
TRACE_OPS = {"cli-mix": 20, "verify-sweep": 2, "oracle-scale": 25}
#: ops handed to the library worker; more than any run gets through
WORKER_OPS = 2000
#: the library worker is killed after this long
WORKER_TIMEOUT_S = 170
#: span names whose counters are reported per Fock-solve key
STEADY = "fock.steady_state"


def child_env() -> dict:
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Launcher:
    """Starts every process of a run through ``launch.py``, so that each
    process's peak RSS is its own (see that file)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def run(self, argv, stdout_path, stderr_path, timeout=OP_TIMEOUT_S):
        """Run one process to completion: (wall seconds, exit code, peak RSS kB)."""
        request = [list(map(str, argv)), str(stdout_path), str(stderr_path), timeout]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("process launcher died")
        return tuple(json.loads(reply))

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _error_type(stderr_text: str, code: int) -> str:
    lines = stderr_text.strip().splitlines()
    try:
        return json.loads(lines[-1])["error"]
    except (IndexError, ValueError, KeyError, TypeError):
        return f"exit {code}"


# ------------------------------------------------------------ CLI workloads
class CliRunner:
    """One fresh ``python -m qsuperpose.cli`` process per op."""

    def __init__(self, launcher: Launcher, workdir: Path):
        self.launch = launcher.run
        self.stdout = workdir / "stdout.txt"
        self.stderr = workdir / "stderr.txt"
        self.span_dir = workdir / "spans"

    def setup(self):
        """Compile and page in the package once, untimed, then time cold
        ``import qsuperpose.cli`` processes."""
        py = sys.executable
        self.launch([py, "-m", "compileall", "-q", SRC / "qsuperpose"], self.stdout, self.stderr)
        self.setup_samples = []
        for k in range(CLI_SETUP_RUNS + 1):
            wall, code, _ = self.launch([py, "-c", "import qsuperpose.cli"], self.stdout, self.stderr)
            if code != 0:
                raise RuntimeError(f"import qsuperpose.cli failed: {self.stderr.read_text()}")
            if k:  # the first one only warms the page cache
                self.setup_samples.append(wall)

    def run_op(self, i: int, op: dict, traced: bool) -> dict:
        argv = workloads.cli_argv(op)
        if traced:
            self.span_dir.mkdir(exist_ok=True)
            cmd = [sys.executable, HERE / "cli_op.py", i, self.span_dir / f"{i}.json", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "qsuperpose.cli", *argv]
        wall, code, rss = self.launch(cmd, self.stdout, self.stderr)
        text = self.stdout.read_text(encoding="utf-8")
        rec = {"class": op["class"], "lat_s": wall, "exit": code, "rss_kb": rss,
               "bytes_out": len(text.encode())}
        if code != 0:
            rec["error"] = _error_type(self.stderr.read_text(encoding="utf-8"), code)
            return rec
        try:
            problems = closedforms.CLI_CHECKS[argv[0]](text, op)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unparseable output: {type(exc).__name__}: {exc}"]
        if problems:
            rec["wrong"] = problems[:3]
        return rec

    def timed(self, blocks, seconds):
        """Whole blocks until ``seconds`` have passed: (ops, records, the
        median op process's peak RSS in kB)."""
        ops, records, start = [], [], time.perf_counter()
        for block in blocks:
            if time.perf_counter() - start >= seconds:
                break
            for op in block:
                records.append(self.run_op(len(ops), op, traced=False))
                ops.append(op)
        return ops, records, statistics.median(r["rss_kb"] for r in records)

    def paired(self, ops):
        """Each op plain and traced, back to back, alternating which runs
        first, so that drift in machine speed cancels out of the overhead."""
        plain, traced = [], []
        for i, op in enumerate(ops):
            for trace in (i % 2 == 1, i % 2 == 0):
                (traced if trace else plain).append(self.run_op(i, op, trace))
        return plain, traced

    def spans(self, records):
        """Spans of every traced op, each op being its own process."""
        return [json.loads((self.span_dir / f"{i}.json").read_text(encoding="utf-8"))
                for i in range(len(records)) if (self.span_dir / f"{i}.json").exists()]

    def import_stats(self, per_process):
        stats = []
        for sp in per_process:
            _, start, end, _, _, _, attrs = sp["spans"][0]
            stats.append({"import_s": end - start, **attrs})
        return stats


# ----------------------------------------------------- library workload
class WorkerRunner:
    """All ops in one long-lived ``worker.py`` process."""

    def __init__(self, launcher: Launcher, workdir: Path):
        self.launch = launcher.run
        self.workdir = workdir
        self.ops_path = workdir / "worker_ops.json"
        self.spans_path = workdir / "spans.json"

    def _worker(self, tag, *mode):
        result = self.workdir / f"worker_{tag}.json"
        err = self.workdir / f"worker_{tag}.err"
        cmd = [sys.executable, HERE / "worker.py", self.ops_path, result, repr(time.time()), *mode]
        _, code, rss = self.launch(cmd, self.workdir / f"worker_{tag}.out", err, WORKER_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"library worker exited {code}: {err.read_text()[-2000:]}")
        out = json.loads(result.read_text(encoding="utf-8"))
        out["rss_kb"] = rss
        return out

    def setup(self):
        """Set-up-only processes; ``timed`` adds the measuring one's."""
        self.ops_path.write_text("[]", encoding="utf-8")
        self.setup_samples = [self._worker(f"setup{k}", "--setup-only")["setup_s"]
                              for k in range(WORKER_SETUP_RUNS)]

    def timed(self, blocks, seconds):
        """The worker runs whole blocks until ``seconds`` have passed: (ops,
        records, its peak RSS in kB)."""
        ops = []
        for block in blocks:
            ops += block
            if len(ops) >= WORKER_OPS:
                break
        self.ops_path.write_text(json.dumps(ops), encoding="utf-8")
        out = self._worker("run", "--seconds", repr(seconds), "--block", len(block))
        self.setup_samples.append(out["setup_s"])
        return ops[: len(out["ops"])], out["ops"], out["rss_kb"]

    def paired(self, ops):
        """The ops in a plain process, then in a traced one: a second run in
        the same process would hit the steady-state cache."""
        self.ops_path.write_text(json.dumps(ops), encoding="utf-8")
        plain = self._worker("plain", "--count", len(ops))["ops"]
        out = self._worker("traced", "--count", len(ops), "--trace", self.spans_path)
        self.last_import = out["import"]
        return plain, out["ops"]

    def spans(self, records):
        return [json.loads(self.spans_path.read_text(encoding="utf-8"))]

    def import_stats(self, per_process):
        return [self.last_import]


# ------------------------------------------------------------------ metrics
def failed(rec) -> bool:
    return "error" in rec or "wrong" in rec


def failure_kind(rec) -> str | None:
    if "wrong" in rec:
        return "wrong"
    code = rec.get("exit")
    if code is None:
        return "exception" if "error" in rec else None
    return {0: None, 2: "validation", 3: "numerics"}.get(code, "crash")


def _p(lats, q):
    """q-quantile with failures as +inf (nearest-rank, so never interpolated
    against an infinity)."""
    s = sorted(lats)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def end_to_end(records, setup, peak_rss_kb) -> tuple[dict, dict]:
    """(the metrics named in BENCHMARK.json, detail for the result file)."""
    lats = [math.inf if failed(r) else r["lat_s"] for r in records]
    n_ok = sum(not failed(r) for r in records)
    busy = sum(r["lat_s"] for r in records)
    extra = {"ops": len(records), "fail_share": 1 - n_ok / len(records), "setup_samples": setup}
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(lats),
        "ops_per_s": n_ok / busy,
        "ok_share": n_ok / len(records),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    if "rss_kb" in records[0]:
        extra["max_op_rss_mb"] = max(r["rss_kb"] for r in records) / 1024
    if len(records) >= 100:  # at least ten samples beyond the 90th percentile
        extra["op_p90_s"] = _p(lats, 0.9)
    classes = sorted({r["class"] for r in records})
    for cls in classes:
        sub = [lat for lat, r in zip(lats, records) if r["class"] == cls]
        extra[f"{cls}_p50_s"] = statistics.median(sub)
        extra[f"{cls}_ops"] = len(sub)
    kinds, errors = {}, {}
    for r in records:
        kind = failure_kind(r)
        if kind:
            kinds[kind] = kinds.get(kind, 0) + 1
            err = r.get("error", "wrong output")
            errors[f"{r['class']}:{err}"] = errors.get(f"{r['class']}:{err}", 0) + 1
    extra["failures_by_kind"] = kinds
    extra["failures_by_error"] = errors
    return metrics, extra


def _steady_state_counters(aggs) -> dict:
    """Fock-solve counters; the solve cache lives per process, so distinct
    keys are counted per process."""
    calls = distinct = rows = 0
    le64 = gt64 = 0.0
    for agg in aggs:
        agg = agg.get(STEADY)
        if agg is None:
            continue
        calls += agg["calls"]
        keys = {}
        for attrs, self_s in agg["records"]:
            keys[json.dumps(attrs["key"])] = attrs["dim"]
            if attrs["dim"] <= 64:
                le64 += self_s
            else:
                gt64 += self_s
        distinct += len(keys)
        rows += sum(dim * dim for dim in keys.values())
    return {
        f"{STEADY}.distinct": distinct,
        f"{STEADY}.distinct_per_call": distinct / calls if calls else 0.0,
        f"{STEADY}.n_le64_s": le64,
        f"{STEADY}.n_gt64_s": gt64,
        f"{STEADY}.liouvillian_rows": rows,
    }


def per_layer(names, per_process, import_stats, records_a, records_b):
    """Layer metrics named in BENCHMARK.json, from the traced run's spans."""
    aggs = [spans.aggregate(sp["spans"]) for sp in per_process]
    merged = {}
    for per_name in aggs:
        for name, agg in per_name.items():
            m = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "fails": 0, "attrs": {}})
            for key in ("calls", "total_s", "self_s", "fails"):
                m[key] += agg[key]
            for key, val in agg["attrs"].items():
                m["attrs"][key] = m["attrs"].get(key, 0) + val
    wall_a = sum(r["lat_s"] for r in records_a)
    wall_b = sum(r["lat_s"] for r in records_b)
    covered = sum(m["self_s"] for m in merged.values())
    ctx = {
        "import.cli_s": statistics.median(s["import_s"] for s in import_stats),
        "import.modules": statistics.median(s["modules"] for s in import_stats),
        "import.scipy_linalg": max(s["scipy_linalg"] for s in import_stats),
        "cli.bytes_out": sum(r.get("bytes_out", 0) for r in records_b),
        "trace.overhead_share": (wall_b - wall_a) / wall_a,
        "trace.coverage_share": covered / wall_b,
        "trace.ops": len(records_b),
    }
    ctx.update(_steady_state_counters(aggs))
    out = {}
    for name in names:
        if name in ctx:
            out[name] = ctx[name]
            continue
        span, _, field = name.rpartition(".")
        m = merged.get(span)
        if m is None:
            out[name] = 0
        elif field == "self_s":
            out[name] = m["self_s"]
        elif field == "s":
            out[name] = m["total_s"]
        elif field in ("calls", "fails"):
            out[name] = m[field]
        else:
            out[name] = m["attrs"].get(field, 0)
    absent = sorted({a for sp in per_process for a in sp.get("absent", [])})
    return out, {"spans": merged, "absent_targets": absent}


# -------------------------------------------------------------- environment
_ENV_PROBE = r"""
import ctypes, importlib, json, pathlib, platform
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
info = {"python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": None}
for lib in (pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
    handle = ctypes.CDLL(str(lib))
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(handle, sym):
            info["blas_threads"] = getattr(handle, sym)()
            break
try:
    import numba
    info["numba"] = numba.__version__
except ImportError:
    info["numba"] = None
try:
    kernels = importlib.import_module("qsuperpose.kernels")
    info["kernels_backend"] = kernels.backend() if hasattr(kernels, "backend") else None
except ImportError:
    info["kernels_backend"] = None
print(json.dumps(info))
"""


def environment(launcher: Launcher, workdir: Path) -> dict:
    out, err = workdir / "env.out", workdir / "env.err"
    _, code, _ = launcher.run([sys.executable, "-c", _ENV_PROBE], out, err)
    info = json.loads(out.read_text()) if code == 0 else {"probe_error": err.read_text()[-500:]}
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_count"] = os.cpu_count()
    info["machine"] = platform.machine()
    info["thread_env"] = {k: os.environ[k] for k in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                          if k in os.environ}
    info["git_commit"] = None
    git = shutil.which("git")
    if git:  # only when the checkout itself is the repository's top level
        res = subprocess.run([git, "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        lines = res.stdout.split()
        if res.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            info["git_commit"] = lines[1]
    return info


# --------------------------------------------------------------------- main
def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qsuperpose" / "__init__.py").is_file():
        print(f"no qsuperpose source tree under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    workdir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    launcher = Launcher()
    try:
        result, ops, records, values, extra, names = measure(args, spec, launcher, workdir)
    finally:
        launcher.close()

    if args.workload != "oracle-scale":
        for op in ops:
            op["argv"] = workloads.cli_argv(op)
    (workdir / "ops.json").write_text(json.dumps(ops, indent=1), encoding="utf-8")
    (workdir / "records.json").write_text(json.dumps(records, indent=1), encoding="utf-8")

    wrong = [r for r in records if "wrong" in r]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    # more than half the ops failed: the median latency is infinite, which
    # JSON cannot carry, and the run is not a measurement
    broken = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    for name in broken:
        metrics[name]["value"] = None
    result.update(metrics=metrics, detail=extra, wrong=wrong[:20],
                  attempted=len(records), failed=sum(failed(r) for r in records))
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    for name, m in metrics.items():
        value = math.inf if m["value"] is None else m["value"]
        print(f"{name:<48} {value:<14.6g} {m['unit']}")
    for key, val in extra.items():
        if isinstance(val, float):
            print(f"  {key:<46} {val:.6g}")
        elif isinstance(val, int):
            print(f"  {key:<46} {val}")
        elif key != "spans" and val:
            print(f"  {key}: {json.dumps(val)}")
    for rec in wrong[:5]:
        print(f"  WRONG {rec['class']}: {rec['wrong']}")
    print(f"  results in {workdir.relative_to(ROOT)}")
    correct = not wrong and not broken
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def measure(args, spec, launcher, workdir):
    runner_cls = WorkerRunner if args.workload == "oracle-scale" else CliRunner
    runner = runner_cls(launcher, workdir)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(launcher, workdir)}
    if args.trace == 0:
        runner.setup()
        ops, records, peak_kb = runner.timed(workloads.blocks(args.workload, args.seed),
                                             args.seconds)
        values, extra = end_to_end(records, runner.setup_samples, peak_kb)
        return result, ops, records, values, extra, spec["end_to_end"]
    ops = workloads.first_ops(args.workload, args.seed, TRACE_OPS[args.workload])
    records_a, records_b = runner.paired(ops)
    per_process = runner.spans(records_b)
    values, extra = per_layer([m["name"] for m in spec["per_layer"]], per_process,
                              runner.import_stats(per_process), records_a, records_b)
    return result, ops, records_a + records_b, values, extra, spec["per_layer"]


if __name__ == "__main__":
    sys.exit(main())

"""Seeded operation streams for the three workloads.

Each workload is an endless stream of blocks.  A block has a fixed
composition (how many ops of each class, and one op per size stratum), and
the seed draws every configuration inside it and the order of the ops.  Fixed
composition keeps runs of different seeds comparable; the seed still decides
every input the program sees.

Rates are drawn to at most 6 significant digits, so the CLI's snapping of
inputs to 9 significant digits leaves them unchanged.
"""

import math
import random

WORKLOADS = ("cli-mix", "verify-sweep", "oracle-scale")


def _r6(x: float) -> float:
    return float(f"{x:.6g}")


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal sub-intervals of [lo, hi]."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def _log_strata(rng, lo, hi, k):
    return [math.exp(v) for v in _strata(rng, math.log(lo), math.log(hi), k)]


def _rates(rng, a: float, b: float, kappa: float | None = None) -> dict:
    kappa = _r6(rng.uniform(0.5, 2.0)) if kappa is None else kappa
    return {"kappa": kappa, "eps1": _r6(a * kappa / 2), "eps2": _r6(b * kappa / 2)}


def _rate_args(op: dict) -> list[str]:
    return ["--kappa", repr(op["kappa"]), "--eps1", repr(op["eps1"]), "--eps2", repr(op["eps2"])]


# ---------------------------------------------------------------- cli-mix
#: per block of 20: reports, sweeps, in-domain qgrids, large-drive qgrids
CLI_BLOCK = {"report": 11, "sweep": 4, "qgrid": 4, "qgrid-large": 1}
#: large-drive qgrid points: eps1 in this range at kappa = 1, i.e. a >= 28,
#: where the superposed prefactor underflows (ROADMAP item 4)
LARGE_EPS1 = (14.0, 20.0)


def _report(rng):
    op = {"class": "report", "format": "json" if rng.random() < 0.75 else "csv"}
    op.update(_rates(rng, rng.uniform(0, 5), rng.uniform(0, 0.95)))
    return op


def _sweep(rng, steps):
    param = rng.choice(("eps1", "eps2", "kappa"))
    op = {"class": "sweep", "format": "csv" if rng.random() < 0.75 else "json"}
    op.update(_rates(rng, rng.uniform(0, 5), rng.uniform(0, 0.9)))
    if param == "eps1":
        start, stop = 0.0, _r6(rng.uniform(0.25, 2.5) * op["kappa"])
    elif param == "eps2":
        start, stop = 0.0, _r6(rng.uniform(0.15, 0.475) * op["kappa"])
    else:  # raising kappa lowers b, so the whole range stays stable
        start = op["kappa"]
        stop = _r6(start * rng.uniform(1.2, 3.0))
    op.update(param=param, start=start, stop=stop, steps=int(round(steps)))
    return op


def _qgrid(rng, grid_n, fmt, large=False):
    op = {"class": "qgrid-large" if large else "qgrid", "format": fmt, "grid_n": int(grid_n)}
    if large:
        op["kind"] = rng.choice(("coherent", "superposed"))
        op.update(kappa=1.0, eps1=_r6(rng.uniform(*LARGE_EPS1)), eps2=_r6(rng.uniform(0, 0.45)))
    else:
        op["kind"] = rng.choice(("coherent", "squeezed", "superposed"))
        op.update(_rates(rng, rng.uniform(0, 4), rng.uniform(0, 0.9)))
    return op


def cli_argv(op: dict) -> list[str]:
    """The command line one op runs, after ``python -m qsuperpose.cli``."""
    cls = op["class"]
    if cls.startswith("verify"):
        return ["verify", *_rate_args(op)]
    if cls == "report":
        return ["report", *_rate_args(op), "--format", op["format"]]
    if cls == "sweep":
        spec = f"{op['param']}:{op['start']!r}:{op['stop']!r}:{op['steps']}"
        return ["sweep", *_rate_args(op), "--sweep", spec, "--format", op["format"]]
    return [
        "qgrid", *_rate_args(op), "--kind", op["kind"],
        "--grid-n", str(op["grid_n"]), "--format", op["format"],
    ]


def _cli_mix_block(rng):
    ops = [_report(rng) for _ in range(CLI_BLOCK["report"])]
    ops += [_sweep(rng, s) for s in _log_strata(rng, 2, 1000, CLI_BLOCK["sweep"])]
    # half the grids go through each writer, so both run in every block
    formats = ["csv", "json"] * (CLI_BLOCK["qgrid"] // 2)
    rng.shuffle(formats)
    sizes = _strata(rng, 64, 512, CLI_BLOCK["qgrid"])
    ops += [_qgrid(rng, n, fmt) for n, fmt in zip(sizes, formats)]
    ops += [_qgrid(rng, rng.uniform(64, 512), rng.choice(("csv", "json")), large=True)]
    return ops


# ----------------------------------------------------------- verify-sweep
#: per block: default-truncation (N = 40) configs, then one larger-N config
VERIFY_DEFAULT = 3
#: the seed's oracle fails its own truncation-doubling check for
#: 0.72 < b < 0.8 at N = 40, so default-path configs stop at b = 0.7
VERIFY_DEFAULT_B = (0.0, 0.7)


def _verify_block(rng):
    ops = []
    for _ in range(VERIFY_DEFAULT):
        op = {"class": "verify"}
        op.update(_rates(rng, rng.uniform(0, 1), rng.uniform(*VERIFY_DEFAULT_B)))
        ops.append(op)
    if rng.random() < 0.5:  # b >= 0.8: N = 40/(1 - b^2) = 112..123
        op = {"class": "verify-largeN"}
        op.update(_rates(rng, rng.uniform(0, 1), rng.uniform(0.80, 0.82)))
    else:  # a > 1: N = 40 a^2 = 90..130
        op = {"class": "verify-largeN"}
        op.update(_rates(rng, rng.uniform(1.5, 1.8), rng.uniform(0, 0.6)))
    ops.append(op)
    return ops


# ----------------------------------------------------------- oracle-scale
#: node counts of the kernel ops in each block; the cost grows as nodes^4
KERNEL_NODES = (32, 48, 64)


def _oracle_block(rng):
    ops = []
    for b in _strata(rng, 0.80, 0.89, 8):  # N = 112..193
        ops.append({"class": "solve", "a": rng.uniform(0, 1), "b": b})
    for a in _strata(rng, 1.5, 2.2, 8):  # N = 90..194
        ops.append({"class": "solve", "a": a, "b": rng.uniform(0, 0.5)})
    for nodes in KERNEL_NODES:
        a, b = rng.uniform(0, 1.5), rng.uniform(0, 0.8)
        ops.append({
            "class": "kernel", "a": a, "b": b, "nodes": nodes,
            "alpha": [a + rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)],
        })
    ops.append({"class": "propagate", "a": rng.uniform(0, 1), "b": rng.uniform(0, 0.5),
                "tau": rng.uniform(2, 6)})
    beta = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
    for which in ("char_fn", "husimi"):
        ops.append({"class": "expect", "which": which, "beta": beta,
                    "dim": rng.randint(60, 100),
                    "arg": [rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)]})
    ops.append({"class": "evolve", "a": rng.uniform(0, 1), "b": rng.uniform(0, 0.4),
                "tau": rng.uniform(60, 100)})
    ops.append({"class": "charfn", "a": rng.uniform(0, 1.5), "b": rng.uniform(0, 0.8),
                "kind": rng.choice(("coherent", "squeezed")),
                "alpha": [rng.uniform(-1, 1), rng.uniform(-1, 1)]})
    ops.append({"class": "moments", "a": rng.uniform(0, 2), "b": rng.uniform(0, 0.8)})
    for op in ops:
        op["kappa"] = _r6(rng.uniform(0.5, 2.0))
        for key in ("a", "b", "tau"):
            if key in op:
                op[key] = _r6(op[key])
    return ops


_BLOCKS = {
    "cli-mix": _cli_mix_block,
    "verify-sweep": _verify_block,
    "oracle-scale": _oracle_block,
}


def blocks(workload: str, seed: int):
    """Endless seeded stream of shuffled blocks; the same seed gives the
    same stream."""
    rng = random.Random(f"{workload}/{seed}")
    block = _BLOCKS[workload]
    while True:
        ops = block(rng)
        rng.shuffle(ops)
        yield ops


def first_ops(workload: str, seed: int, n: int) -> list[dict]:
    """The first n ops of the stream."""
    ops = []
    for block in blocks(workload, seed):
        ops += block
        if len(ops) >= n:
            return ops[:n]

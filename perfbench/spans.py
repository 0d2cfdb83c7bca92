"""In-memory spans around calls into qsuperpose's public functions.

The tracer wraps functions by public name and rebinds the wrapper in every
``qsuperpose`` module that binds the same function object (``cli`` imports
``q_grid`` by name, ``verification`` imports ``superpose_q_numeric`` by
name, the package re-exports nearly everything).  Modules imported later,
for instance by a lazy import inside ``cli.main``, are patched as soon as they
finish executing.  A target name that does not exist is recorded as absent.

A span is ``[name, start, end, parent, op, error, attrs]``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until ``dump``.
"""

import functools
import importlib.abc
import inspect
import json
import sys
import time

PACKAGE = "qsuperpose"

#: targets beyond ``qsuperpose.__all__``: (module, attribute path)
EXTRA_TARGETS = (
    ("cli", "main"),
    ("verification", "run_verification"),
    ("verification", "check_*"),
    ("qfunctions", "QGrid.write_csv"),
    ("qfunctions", "QGrid.as_json_dict"),
    ("params", "GaussianQ.__call__"),
)
#: functions only counted, into the innermost open span, not spanned
COUNTERS = (("fock", "_rk4_step", "rk4_steps"),)


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__qualname__}"


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _steady_state_attrs(fn, args, kwargs, result):
    arg = _bound(fn, args, kwargs)
    config, dim = arg.get("config"), getattr(result, "dim", None)
    if dim is None:
        dim = arg.get("trunc")
    if dim is None:
        try:
            dim = sys.modules[f"{PACKAGE}.fock"].default_truncation(config)
        except Exception:  # noqa: BLE001 - the call itself already failed
            dim = 0
    key = [config.kappa, config.eps1, config.eps2, int(dim), str(arg.get("method"))]
    return {"dim": int(dim), "key": key}


def _kernel_attrs(fn, args, kwargs, result):
    spec = _bound(fn, args, kwargs).get("quad_spec")
    if spec is None:
        spec = sys.modules[f"{PACKAGE}.qfunctions"].QuadratureSpec()
    return {"grid_points": int(spec.nodes) ** 4}


def _q_grid_attrs(fn, args, kwargs, result):
    return {"points": int(_bound(fn, args, kwargs)["n"]) ** 2}


def _gaussian_call_attrs(fn, args, kwargs, result):
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return {"points": int(getattr(alpha, "size", 1))}


def _evolve_attrs(fn, args, kwargs, result):
    arg = _bound(fn, args, kwargs)
    n_full, rem = divmod(arg["t"], arg["dt"])
    return {"steps": int(n_full) + (rem > 1e-15 * max(arg["t"], 1.0))}


ATTRS = {
    "fock.steady_state": _steady_state_attrs,
    "qfunctions.superpose_q_numeric": _kernel_attrs,
    "qfunctions.q_grid": _q_grid_attrs,
    "params.GaussianQ.__call__": _gaussian_call_attrs,
    "combined.evolve_moments": _evolve_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.wrapped = {}  # original function -> wrapper
        self.absent = set()

    # ---------------------------------------------------------- recording
    def add(self, name, start, end, attrs=None):
        self.spans.append([name, start, end, -1, self.op, None, attrs])

    def wrap(self, fn, name):
        attrs_fn = ATTRS.get(name)
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if attrs_fn is not None:
                    try:
                        attrs = attrs_fn(fn, args, kwargs, result)
                    except Exception as exc:  # noqa: BLE001 - keep the op running
                        attrs = {"attrs_error": type(exc).__name__}
                    rec[6] = {**(rec[6] or {}), **attrs}  # keep counts made inside

        return wrapper

    def counter(self, fn, key):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                if rec[6] is None:
                    rec[6] = {}
                rec[6][key] = rec[6].get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- installation
    def install(self):
        """Wrap every target in the loaded package, and patch modules that
        load later as they finish executing."""
        self._patch_loaded()
        sys.meta_path.insert(0, _PatchOnImport(self))

    def _modules(self):
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def _targets(self):
        pkg = sys.modules.get(PACKAGE)
        for name in getattr(pkg, "__all__", ()):
            obj = getattr(pkg, name, None)
            if inspect.isfunction(obj):
                yield obj, None, None
        for mod_name, path in EXTRA_TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if mod is None:
                continue
            if path.endswith("*"):
                prefix = path[:-1]
                for attr, obj in vars(mod).items():
                    if attr.startswith(prefix) and inspect.isfunction(obj):
                        yield obj, None, None
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            obj = getattr(owner, attr, None) if owner is not None else None
            if obj is None:
                self.absent.add(f"{mod_name}.{path}")
            elif owner is not mod:
                yield obj, owner, attr
            else:
                yield obj, None, None

    def _patch_loaded(self):
        wrapped = self.wrapped
        for obj, owner, attr in list(self._targets()):
            if obj in wrapped.values():
                continue
            if obj not in wrapped:
                wrapped[obj] = self.wrap(obj, _span_name(obj))
            if owner is not None:  # a method: the class is shared by all modules
                setattr(owner, attr, wrapped[obj])
        for mod_name, attr, key in COUNTERS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if mod is None:
                continue
            obj = getattr(mod, attr, None)
            if obj is None:
                self.absent.add(f"{mod_name}.{attr}")
            elif obj not in wrapped and obj not in wrapped.values():
                wrapped[obj] = self.counter(obj, key)
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def absent_now(self):
        """Targets still missing once the run is over."""
        missing = set()
        for name in self.absent:
            mod_name, _, path = name.partition(".")
            obj = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.add(name)
        return sorted(missing)

    def dump(self, path, extra=None):
        payload = {"spans": self.spans, "absent": self.absent_now()}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patch each ``qsuperpose`` module right after it executes."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname.partition(".")[0] != PACKAGE:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader, tracer = spec.loader, self.tracer
        original = loader.exec_module

        def exec_module(module):
            original(module)
            tracer._patch_loaded()

        loader.exec_module = exec_module
        return spec


def aggregate(spans):
    """Per span name: count, total, self time, failures, summed attrs.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, _, _, error, attrs) in enumerate(spans):
        agg = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fails": 0, "attrs": {}, "records": []}
        )
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child[idx]
        agg["fails"] += error is not None
        for key, val in (attrs or {}).items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                agg["attrs"][key] = agg["attrs"].get(key, 0) + val
        if attrs and "key" in attrs:
            agg["records"].append((attrs, (end - start) - child[idx]))
    return out

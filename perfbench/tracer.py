"""Outside-in tracer for balmet, kept in the benchmark's own files.

Each public call is wrapped at the name its caller looks up (for example
``cp1.refine_by_doubling``, the name ``cp1._apply_family`` resolves), so the
program under test is not edited.  Spans live in memory as
``[name, start, end, parent, task, phase, attrs, error]`` and are written out
once, at the end of a run.  ``install`` and ``uninstall`` swap the wrappers in
and restore the originals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

perf = time.perf_counter

# Node levels reported one by one; anything else lands in "<layer>.eval.other".
CP1_LEVELS = (64, 128, 256, 512, 1024, 2048)
CPN_LEVELS = (48, 64, 96, 128, 192, 256, 512)
TABLE_IDS = ("tk-k2", "tnu-k3", "t-k6", "cpn-k4")

COUNT, SECONDS, MS, RATIO = "count", "s", "ms", "ratio"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [
        ("quadrature.nodes.miss", COUNT),
        ("quadrature.nodes.s", SECONDS),
        ("quadrature.levels_per_app", COUNT),
        ("quadrature.fail", COUNT),
    ]
    for layer, levels in (("cp1", CP1_LEVELS), ("cpn", CPN_LEVELS)):
        names += [(f"{layer}.apps", COUNT), (f"{layer}.apply.s", SECONDS)]
        for m in [str(m) for m in levels] + ["other"]:
            tag = f"m{m}" if m != "other" else m
            names += [(f"{layer}.eval.{tag}.n", COUNT), (f"{layer}.eval.{tag}.s", SECONDS)]
        names.append((f"{layer}.self.s", SECONDS))
    names += [
        ("cp1.apply_ms.p50", MS),
        ("cp1.apply_ms.p99", MS),
        ("cpn.integrals_per_app", COUNT),
        ("cpn.orbit_share", RATIO),
        ("dynamics.apps", COUNT),
        ("dynamics.apps.repeat", COUNT),
        ("dynamics.unique_frac", RATIO),
        ("dynamics.find_balanced.n", COUNT),
        ("dynamics.find_balanced.s", SECONDS),
        ("dynamics.apps_per_limit", COUNT),
    ]
    names += [(f"tables.reproduce.{tid}.s", SECONDS) for tid in TABLE_IDS]
    names += [("cli.main.s", SECONDS), ("cli.self.s", SECONDS),
              ("trace.overhead_frac", RATIO)]
    return names


def _coeff_key(op, g) -> tuple:
    coeffs = np.asarray(getattr(g, "coeffs", g), dtype=float)
    return (str(getattr(op, "value", op)).lower(), type(g).__name__, coeffs.tobytes())


class Tracer:
    """Records spans around balmet's layer boundaries.

    The benchmark traces each phase ("setup", "pass" or "limits") inside
    ``active`` and sets ``task`` before each top-level operation; spans
    inherit both.
    """

    def __init__(self, balmet):
        self.spans: list[list] = []
        self.task = None
        self.phase = "setup"
        self._stack: list[int] = []
        self._applied: dict = {}
        self._saved: list = []
        mods = {name: getattr(balmet, name) for name in ("cp1", "cpn", "dynamics", "tables", "cli")}
        # (module, attribute, factory): the attribute is the name the caller looks up.
        self._targets = [
            (mods["cp1"], "refine_by_doubling", lambda fn: self._refine("cp1", fn)),
            (mods["cpn"], "refine_by_doubling", lambda fn: self._refine("cpn", fn)),
            (mods["cp1"], "gauss_legendre_unit", self._nodes),
            (mods["cpn"], "gauss_legendre_unit", self._nodes),
            (mods["cp1"], "apply_operator", lambda fn: self._plain("cp1.apply", fn)),
            (mods["cpn"], "apply_Tnu_cpn", self._apply_cpn),
            (mods["dynamics"], "apply_step", self._apply_step),
            (mods["dynamics"], "find_balanced", lambda fn: self._plain("dynamics.find_balanced", fn)),
            (mods["tables"], "build_trajectory", lambda fn: self._plain("tables.build_trajectory", fn)),
            (mods["cli"], "reproduce", self._reproduce),
            (mods["cli"], "main", lambda fn: self._plain("cli.main", fn)),
        ]
        self.missing = [f"{m.__name__}.{a}" for m, a, _ in self._targets if not hasattr(m, a)]

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, self.task, self.phase, attrs, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span[2] = perf()
        if error is not None:
            span[7] = type(error).__name__
        self._stack.pop()

    def _call(self, name, fn, args, kwargs, attrs=None):
        idx = self._open(name, attrs)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(idx, exc)
            raise
        self._close(idx)
        return out

    # -- wrappers -----------------------------------------------------------
    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _refine(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(evaluate, *args, **kwargs):
            def traced_evaluate(m):
                idx = self._open(f"{layer}.eval", {"m": int(m)})
                try:
                    out = evaluate(m)
                except BaseException as exc:
                    self._close(idx, exc)
                    raise
                self.spans[idx][6]["integrals"] = int(np.size(out))
                self._close(idx)
                return out
            return self._call(f"{layer}.refine", fn, (traced_evaluate,) + args, kwargs)
        return wrapper

    def _nodes(self, fn):
        cache_info = getattr(fn, "cache_info", None)
        seen: set = set()

        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            before = cache_info().misses if cache_info else None
            t0 = perf()
            out = fn(m, *args, **kwargs)
            t1 = perf()
            miss = cache_info().misses != before if cache_info else m not in seen
            seen.add(m)
            if miss:
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(["quadrature.nodes", t0, t1, parent, self.task,
                                   self.phase, {"m": int(m)}, None])
            return out
        return wrapper

    def _apply_cpn(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            metric = args[0] if args else kwargs["metric"]
            return self._call("cpn.apply", fn, args, kwargs, {"size": int(metric.basis.size)})
        return wrapper

    def _apply_step(self, fn):
        @functools.wraps(fn)
        def wrapper(op, g, *args, **kwargs):
            seen = self._applied.setdefault((self.phase, self.task), set())
            key = _coeff_key(op, g)
            repeat = key in seen
            seen.add(key)
            return self._call("dynamics.apply_step", fn, (op, g) + args, kwargs,
                              {"repeat": repeat})
        return wrapper

    def _reproduce(self, fn):
        @functools.wraps(fn)
        def wrapper(table_id, *args, **kwargs):
            return self._call("tables.reproduce", fn, (table_id,) + args, kwargs,
                              {"id": str(table_id)})
        return wrapper

    # -- install / restore --------------------------------------------------
    def install(self) -> None:
        for module, attr, factory in self._targets:
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, factory(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def active(self, phase: str):
        """Trace the enclosed calls as ``phase``; the originals come back after."""
        self.phase = phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- reduction ------------------------------------------------------------
    def layer_metrics(self, passes: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics.  Counts and seconds are per traced pass, except
        the node-table and failure counts, which cover the whole traced run
        (set-up, passes and the known-limit starts)."""
        out = {name: 0.0 for name, _ in per_layer_names()}
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        apply_ms: list[float] = []
        integrals_of_refine: dict[int, int] = {}
        basis_sizes = refines = evals = 0
        for idx, (name, start, end, parent, _, phase, attrs, error) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".")[0]
            if name == "quadrature.nodes":
                out["quadrature.nodes.miss"] += 1
                out["quadrature.nodes.s"] += dur
            elif name.endswith(".refine") and error == "QuadratureError":
                out["quadrature.fail"] += 1
            if phase != "pass":
                continue
            if name.endswith(".refine"):
                refines += 1
            elif name.endswith(".eval"):
                evals += 1
                m = attrs["m"]
                tag = f"m{m}" if m in (CP1_LEVELS if layer == "cp1" else CPN_LEVELS) else "other"
                out[f"{layer}.eval.{tag}.n"] += 1
                out[f"{layer}.eval.{tag}.s"] += dur
                out[f"{layer}.self.s"] -= dur
                if layer == "cpn":
                    integrals_of_refine[parent] = attrs.get("integrals", 0)
            elif name in ("cp1.apply", "cpn.apply"):
                out[f"{layer}.apps"] += 1
                out[f"{layer}.apply.s"] += dur
                out[f"{layer}.self.s"] += dur
                if layer == "cp1":
                    apply_ms.append(dur * 1e3)
                else:
                    basis_sizes += attrs["size"]
            elif name == "dynamics.apply_step":
                out["dynamics.apps"] += 1
                out["dynamics.apps.repeat"] += attrs["repeat"]
            elif name == "dynamics.find_balanced":
                out["dynamics.find_balanced.n"] += 1
                out["dynamics.find_balanced.s"] += dur
            elif name == "tables.reproduce" and attrs["id"] in TABLE_IDS:
                out[f"tables.reproduce.{attrs['id']}.s"] += dur
            elif name == "cli.main":
                out["cli.main.s"] += dur
                out["cli.self.s"] += dur - child_s[idx]

        whole_run = {"quadrature.nodes.miss", "quadrature.nodes.s", "quadrature.fail"}
        for name in out:
            if name not in whole_run:
                out[name] /= passes
        out["quadrature.levels_per_app"] = evals / refines if refines else 0.0
        if apply_ms:
            out["cp1.apply_ms.p50"] = float(np.percentile(apply_ms, 50))
            out["cp1.apply_ms.p99"] = float(np.percentile(apply_ms, 99))
        integrals = sum(integrals_of_refine.values())
        if basis_sizes:
            out["cpn.integrals_per_app"] = integrals / (out["cpn.apps"] * passes)
            out["cpn.orbit_share"] = integrals / basis_sizes
        if out["dynamics.apps"]:
            out["dynamics.unique_frac"] = 1.0 - out["dynamics.apps.repeat"] / out["dynamics.apps"]
        if out["dynamics.find_balanced.n"]:
            out["dynamics.apps_per_limit"] = out["dynamics.apps"] / out["dynamics.find_balanced.n"]
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "columns": ["name", "start", "end", "parent", "task", "phase",
                                   "attrs", "error"],
                       "spans": self.spans}, fh, separators=(",", ":"))


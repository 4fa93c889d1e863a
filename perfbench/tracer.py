"""Traced `aperylab verify`, for the per-layer metrics of the benchmark.

    python3 perfbench/tracer.py METRICS.json verify --checks ... --format json

runs the CLI in this process after wrapping, from outside, every public
function of each package module (and public methods of its classes) at its
definition and at every `from ... import` alias.  The CLI's stdout is left
untouched; the per-layer metrics go to METRICS.json.  Worker processes of a
`--jobs N` pool get the unwrapped functions back right after fork, so the
trace covers the parent only.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import json
import os
import resource
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "checks", "sequences", "special", "modring", "identities", "exactcore")

# Groups whose time is summed over calls that are not nested in one another.
GROUPS = {
    "sequences.apery_exact*": ("sequences.apery_a_exact", "sequences.apery_aprime_exact"),
    "special.bernoulli*": ("special.bernoulli", "special.bernoulli_table"),
    "exactcore.series*": ("exactcore.series_arctanh", "exactcore.series_inv_sqrt_one_minus_x2",
                         "exactcore.series_mul"),
}

IDENTITY_VERIFIERS = (
    "lemma21_identity", "order4_certificate", "eq21_identity", "eq22_congruence",
    "eq31_identity", "thm31_dual", "thm32_identity", "order5_certificate", "gf_oracle",
)

CHECK_NAMES = (
    "beukers_a", "beukers_aprime", "liu_a", "liu_aprime", "eq1.3", "thm2.1i", "thm2.1ii",
    "lemma2.3", "lemma2.4", "lemma2.5", "lemma2.6", "lemma2.7a", "lemma2.7b", "conj2.1",
    "conj2.2", "conj2.3", "conj2.4", "conj2.5", "thm3.3_tp", "thm3.3_tpm1", "thm3.3_thalf",
    "thm3.3_thalfp1", "thm3.3_tquarter", "id_lemma2.1", "id_eq2.1", "id_eq2.2", "id_eq3.1",
    "id_thm3.1", "id_thm3.2", "id_gf",
)

# Every per-layer metric, in report order, with its unit.  cli.stdout_bytes
# and the trace.* entries are measured by the caller of this script.
METRICS = (
    [(f"{layer}.{kind}_s", "s") for layer in LAYERS for kind in ("inclusive", "self")]
    + [
        ("sequences.apery_exact_s", "s"), ("sequences.apery_exact_misses", "count"),
        ("sequences.seq_mod_s", "s"), ("sequences.seq_mod_calls", "count"),
        ("modring.residues_created", "count"), ("modring.table_binomial_calls", "count"),
        ("modring.reduce_rat_s", "s"),
        ("special.euler_mod_s", "s"), ("special.euler_mod_calls", "count"),
        ("special.bernoulli_s", "s"), ("special.bernoulli_max_index", "count"),
        ("special.padic_gamma_s", "s"), ("special.padic_gamma_steps", "count"),
        ("special.gamma_closed_form_s", "s"),
    ]
    + [(f"identities.{v}_s", "s") for v in IDENTITY_VERIFIERS]
    + [("exactcore.series_s", "s")]
    + [(f"checks.run_check.{c}_s", "s") for c in CHECK_NAMES]
    + [
        ("checks.sweep_s", "s"), ("checks.tasks", "count"), ("checks.recover_cm_s", "s"),
        ("checks.pool_cpu_s", "s"), ("cli.record_dict_s", "s"), ("cli.stdout_bytes", "bytes"),
        ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ]
)


def _children_cpu() -> float:
    """CPU of reaped child processes; only pool workers are children here."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans at the public boundary of each layer, kept in memory."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)  # outermost calls only
        self.self_time: defaultdict = defaultdict(float)  # per layer
        self.extra: defaultdict = defaultdict(float)  # times and counts from hooks
        self._depth: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self._children_cpu0 = _children_cpu()

    # -- wrapping ---------------------------------------------------------

    def _span(self, layer: str, key: str, fn, hook=None):
        accounts = (layer, key) + tuple(g for g, keys in GROUPS.items() if key in keys)
        depth, stack, inclusive, self_time, calls = (
            self._depth, self._stack, self.inclusive, self.self_time, self.calls)

        def wrapper(*args, **kwargs):
            outer = [a for a in accounts if not depth[a]]
            for a in accounts:
                depth[a] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                for a in accounts:
                    depth[a] -= 1
                for a in outer:
                    inclusive[a] += dt
                self_time[layer] += dt - child
                calls[key] += 1
            if hook is not None:
                hook(args, kwargs, result, dt)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        # keep the lru_cache object reachable so cache_info() still works
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"aperylab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    key = f"{layer}.{name}"
                    self.originals[key] = obj
                    wrappers[id(obj)] = self._span(layer, key, obj, self._hook(key))
        # rebind the definition and every alias, in every package module
        for modname, mod in list(sys.modules.items()):
            if modname != "aperylab" and not modname.startswith("aperylab."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not name.startswith("__"):
                    self._patch(mod, name, wrappers[id(obj)])
        os.register_at_fork(after_in_child=self.uninstall)

    def _wrap_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for name, obj in list(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                key = f"{layer}.{cls.__name__}.{name}"
                self._patch(cls, name, self._span(layer, key, obj))
        if cls.__name__ == "Residue":
            init, calls = cls.__init__, self.calls

            def counted_init(obj, *args):
                calls["modring.Residue"] += 1
                init(obj, *args)

            self._patch(cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- counts taken from arguments and results ---------------------------

    def _hook(self, key: str):
        extra = self.extra
        if key == "checks.run_check":
            def hook(args, kwargs, result, dt):
                name = args[0] if args else kwargs["name"]
                extra[f"checks.run_check.{name}"] += dt
            return hook
        if key == "checks.sweep":
            def hook(args, kwargs, result, dt):
                extra["checks.tasks"] += len(result)
            return hook
        if key in ("special.bernoulli", "special.bernoulli_table"):
            def hook(args, kwargs, result, dt):
                n = args[0] if args else next(iter(kwargs.values()))
                extra["special.bernoulli_max_index"] = max(extra["special.bernoulli_max_index"], n)
            return hook
        if key == "special.padic_gamma":
            sig = inspect.signature(self.originals[key])

            def hook(args, kwargs, result, dt):
                a = sig.bind(*args, **kwargs).arguments
                x, m = a["x"], a["p"] ** a["e"]
                n = x.numerator * pow(x.denominator, -1, m) % m
                extra["special.padic_gamma_steps"] += max(n - 1, 0)
            return hook
        return None

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        inc, calls, extra = self.inclusive, self.calls, self.extra
        misses = sum(self.originals[k].cache_info().misses
                     for k in GROUPS["sequences.apery_exact*"] if k in self.originals)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.inclusive_s"] = inc[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        out.update({
            "sequences.apery_exact_s": inc["sequences.apery_exact*"],
            "sequences.apery_exact_misses": misses,
            "sequences.seq_mod_s": inc["sequences.seq_mod"],
            "sequences.seq_mod_calls": calls["sequences.seq_mod"],
            "modring.residues_created": calls["modring.Residue"],
            "modring.table_binomial_calls": calls["modring.FactorialTable.binomial"],
            "modring.reduce_rat_s": inc["modring.reduce_rat"],
            "special.euler_mod_s": inc["special.euler_mod"],
            "special.euler_mod_calls": calls["special.euler_mod"],
            "special.bernoulli_s": inc["special.bernoulli*"],
            "special.bernoulli_max_index": int(extra["special.bernoulli_max_index"]),
            "special.padic_gamma_s": inc["special.padic_gamma"],
            "special.padic_gamma_steps": int(extra["special.padic_gamma_steps"]),
            "special.gamma_closed_form_s": inc["special.gamma_quarter_closed_form"],
        })
        for v in IDENTITY_VERIFIERS:
            out[f"identities.{v}_s"] = inc[f"identities.{v}"]
        out["exactcore.series_s"] = inc["exactcore.series*"]
        for c in CHECK_NAMES:
            out[f"checks.run_check.{c}_s"] = extra[f"checks.run_check.{c}"]
        out.update({
            "checks.sweep_s": inc["checks.sweep"],
            "checks.tasks": int(extra["checks.tasks"]),
            "checks.recover_cm_s": inc["checks.recover_cm"],
            "checks.pool_cpu_s": _children_cpu() - self._children_cpu0,
            "cli.record_dict_s": inc["cli.record_dict"],
        })
        return out


def main(argv: list[str]) -> int:
    metrics_path, cli_args = argv[0], argv[1:]
    spans = Tracer()
    spans.install()
    from aperylab import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
    with open(metrics_path, "w") as fh:
        json.dump(spans.metrics(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

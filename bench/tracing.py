"""Traced run: wraps fockmod's public functions from outside the program.

A ``Tracer`` monkeypatches the functions listed in ``TARGETS`` for the
duration of one traced workload run and restores them afterwards.
Every wrapped call goes through one stack-based accumulator that keeps
per-function call counts, total time and self time (total minus the
time spent in wrapped callees).  The cli and models boundaries also
record spans (name, start, end, parent, run id).  The hot inner calls
(``WeylElement.__init__``, ``create``, ...) run hundreds of thousands of
times, so they get counters only, never a span each.  Everything stays
in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
import weakref

# (metric name, module, attribute path, records a span); two functions
# may share a name, and then share its counters
TARGETS = (
    ("weyl.init", "fockmod.weyl", "WeylElement.__init__", False),
    ("weyl.mul", "fockmod.weyl", "WeylElement.__mul__", False),
    ("weyl.state", "fockmod.weyl", "State.__call__", False),
    ("bimodule.by_group", "fockmod.bimodule", "ModuleVector.by_group", False),
    ("bimodule.twist_init", "fockmod.bimodule", "Twist.__init__", False),
    ("bimodule.twist_matrix", "fockmod.bimodule", "Twist.matrix", False),
    ("bimodule.column", "fockmod.bimodule", "Twist.column", False),
    ("bimodule.mutually_free", "fockmod.bimodule", "mutually_free", False),
    ("bimodule.left_action", "fockmod.bimodule", "left_action", False),
    ("bimodule.module_inner", "fockmod.bimodule", "module_inner", False),
    ("fock.create", "fockmod.fock", "create", False),
    ("fock.annihilate", "fockmod.fock", "annihilate", False),
    ("fock.gns_inner", "fockmod.fock", "gns_inner", False),
    ("fock.left_action", "fockmod.fock", "fock_left_action", False),
    ("fock.apply", "fockmod.fock", "FieldOperator.apply", False),
    ("models.sigma_convolve", "fockmod.models", "sigma_convolve", False),
    ("models.level_basis", "fockmod.models", "level_basis", False),
    ("models.build_context", "fockmod.models", "build_context", True),
    ("cli.main", "fockmod.cli", "main", True),
    ("cli.build_scenario", "fockmod.cli", "build_scenario", True),
    ("cli.run_config", "fockmod.cli", "run_config", True),
    ("cli.report", "fockmod.cli", "assemble_report", True),
    ("cli.report", "fockmod.cli", "report_json", True),
)

# layers whose self times are reported; time outside them (cli's own code
# and the benchmark's) is 'other'
LAYERS = ("weyl", "bimodule", "fock", "models")
ROOT = "run"
COUNTERS = (
    "bimodule.twist_matrix.misses",
    "fock.create.truncated",
    "fock.peak_level",
    "models.level_basis.witnesses",
)


def check_targets() -> tuple:
    """models.check_<name> for every check function, each with a span."""
    models = sys.modules["fockmod.models"]
    return tuple(
        (f"models.check.{attr[len('check_'):]}", "fockmod.models", attr, True)
        for attr in sorted(vars(models))
        if attr.startswith("check_") and callable(getattr(models, attr))
    )


class Tracer:
    """Per-function counters plus spans at the layer boundaries.

    ``stats[name]`` is ``[calls, total_s, self_s]``.  ``spans`` holds
    ``(name, start, end, parent, run_id)`` with ``parent`` the index of
    the enclosing span, or None.  The clock is injectable so tests can
    drive a synthetic span tree.
    """

    def __init__(self, run_id: int = 0, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []
        # frames: [start, time spent in wrapped callees]
        self._stack: list[list] = []
        self._span_stack: list[int] = []
        self._patches: list[tuple] = []
        self._matrix_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- accumulation ------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False, after=None):
        """Wrapper accounting each call of fn under name."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock
        spans = self.spans
        span_stack = self._span_stack
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            if span:
                sid = len(spans)
                spans.append(None)
                span_stack.append(sid)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - frame[0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    spans[sid] = (name, frame[0], end, parent, run_id)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters hooked onto results --------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def _after_matrix(self, args, result) -> None:
        twist, n = args[0], tuple(int(v) for v in args[1])
        seen = self._matrix_keys.setdefault(twist, set())
        if n not in seen:
            seen.add(n)
            self._count("bimodule.twist_matrix.misses")

    def _after_create(self, args, result) -> None:
        if result.truncated:
            self._count("fock.create.truncated")
        if result.parts:
            self.counters["fock.peak_level"] = max(self.counters["fock.peak_level"], max(result.parts))

    def _after_level_basis(self, args, result) -> None:
        self._count("models.level_basis.witnesses", len(result))

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Patch every target wherever fockmod modules hold a reference."""
        hooks = {
            "bimodule.twist_matrix": self._after_matrix,
            "fock.create": self._after_create,
            "models.level_basis": self._after_level_basis,
        }
        holders = [m for n, m in sys.modules.items() if n.startswith("fockmod")]
        for name, modname, path, span in TARGETS + check_targets():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, span, hooks.get(name))
            if cls_path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self time per layer; 'other' is the rest of the root span.

        The values add up to the root span's duration, because every
        wrapped call runs inside the root and each one's self time
        excludes exactly its wrapped callees.
        """
        out = dict.fromkeys(LAYERS + ("other",), 0.0)
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer if layer in LAYERS else "other"] += self_s
        return out

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.<function>.<calls|self_s|total_s>`` metrics."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            if name == ROOT:
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        creates = out.get("fock.create.calls", 0)
        out["fock.create.truncated_ratio"] = (
            self.counters["fock.create.truncated"] / creates if creates else 0.0
        )
        for layer, value in self.layer_self().items():
            out[f"{layer}.self_s"] = value
        out["trace.wall_s"] = self.stats.get(ROOT, [0, 0.0, 0.0])[1]
        return out

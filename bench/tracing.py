"""In-memory span tracing installed around mqoc's public functions at run time.

A span records its name, start, end and parent span.  Wrappers replace every
binding of a traced function inside the loaded ``mqoc`` modules (including
``from .io import write_csv`` style aliases), so nested calls between layers
produce nested spans.  Nothing under ``src/`` is changed; ``uninstall``
restores the original objects.
"""

import functools
import importlib
import json
import sys
import time

TRACED = (
    "operators.project_physical",
    "operators.check_density",
    "operators.lindblad_drift",
    "operators.fluctuation",
    "belavkin.simulate_ensemble",
    "belavkin.noise_increments",
    "belavkin.trajectory_cost",
    "hjb_bloch.solve_hjb_grid",
    "hjb_bloch.bloch_dynamics",
    "hjb_bloch.extract_costate",
    "hjb_bloch.write_grid_csv",
    "pontryagin.GridPolicy.__call__",
    "pontryagin.minimize_hamiltonian",
    "pontryagin.hamiltonian_gradient_r",
    "pontryagin.fbsde_residual",
    "moments.run_moment_filter",
    "moments.moment_filter_step",
    "io.write_csv",
    "io.write_keyvalue",
)

ROOT = "pipeline"


class Tracer:
    """Collects spans as [name, start, end, parent_index] in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.last_root = range(0)

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
        return wrapper

    def run_root(self, fn):
        """Run fn() under a root span; `last_root` then holds the range of its spans."""
        first = len(self.spans)
        try:
            return self.span(ROOT, fn)()
        finally:
            self.last_root = range(first, len(self.spans))

    def install(self, targets=TRACED):
        """Wrap every target that exists; a missing one simply records no spans."""
        modules = [m for name, m in sys.modules.items()
                   if name == "mqoc" or name.startswith("mqoc.")]
        for target in targets:
            mod_name, _, attr = target.partition(".")
            owner = importlib.import_module(f"mqoc.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    self._patch(cls, meth, original, self.span(target, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.span(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path):
        """One JSON object per span: name, start, end, parent (-1 for roots)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_profile(spans, members):
    """Per-name call counts, self time and inclusive time over one root's spans.

    Self time is a span's duration minus the durations of its direct children;
    the root's self time is the part of the pipeline no traced function covers.
    """
    child_time = {i: 0.0 for i in members}
    for i in members:
        parent = spans[i][3]
        if parent in child_time:
            child_time[parent] += spans[i][2] - spans[i][1]
    profile = {}
    for i in members:
        name, start, end, parent = spans[i]
        entry = profile.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["total_s"] += end - start
    return profile


def exclusive_time(spans, members, outer, inner):
    """Total time of `outer` spans minus the `inner` spans nested directly in them."""
    outer_ids = {i for i in members if spans[i][0] == outer}
    total = sum(spans[i][2] - spans[i][1] for i in outer_ids)
    nested = sum(spans[i][2] - spans[i][1] for i in members
                 if spans[i][0] == inner and spans[i][3] in outer_ids)
    return total - nested

"""Layer spans and memo-table accounting, taken from outside the kernel.

The tracer wraps every public function (and every public method of a
public class) that a layer module defines, and rebinds each name that
refers to it in every ``ttk`` module, the defining one included.  A
wrapped call records a span only when it enters its layer from another
layer (or from the benchmark), so recursive ``eval_*``/``synth_*`` calls
inside a layer cost one comparison each and record nothing.  Spans stay in
memory; ``write`` dumps them when the run ends.

Memo tables are the ``lru_cache`` objects behind ``caches.memoized``;
``MemoTables`` reads their ``cache_info()`` by module and public name, and
reports a table that no longer exists as absent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("generate", "equations", "typecheck", "semantics", "conversion",
          "termify", "parametricity", "injectivity", "canonicity", "surface",
          "cli", "suites")

# The 24 memoised kernel functions, by layer.
MEMO_TABLES = {
    "typecheck": ("normalize_ty_in", "types_convertible", "ctxs_convertible",
                  "check_ctx", "infer_ty", "synth_sub", "synth_tm"),
    "semantics": ("eval_tm", "eval_ty", "eval_sub", "readback_tm",
                  "readback_ty", "readback_ne", "generic_env"),
    "termify": ("_point_split", "termify_ctx", "termify_sub", "termify_ty",
                "termify_tm"),
    "parametricity": ("param_ctx", "param_ty", "param_sub", "param_tm"),
    "injectivity": ("build_ctx_iso",),
}


def _entry_points(module):
    """(owner, attribute, callable) for each public function defined in
    ``module`` and each public method of a public class defined there."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for name, method in list(vars(obj).items()):
                if not name.startswith("_") and inspect.isfunction(method):
                    yield obj, name, method
        elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield module, attr, obj


# A span is five consecutive numbers in a flat array of doubles: name id,
# start, end, parent span index (-1 for none) and case index.
SPAN = 5


def spans_of(buffer):
    """Iterate over the (name, start, end, parent, case) spans in ``buffer``."""
    for base in range(0, len(buffer), SPAN):
        name_id, start, end, parent, case = buffer[base:base + SPAN]
        yield int(name_id), start, end, int(parent), int(case)


class Tracer:
    """Records (name, start, end, parent, case) spans at layer entries."""

    def __init__(self, modules: dict) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.spans = array("d")
        self.case = -1
        self.print_bytes = 0
        self.raised: Counter = Counter()
        self._stack = [-1]      # layer index of the innermost open span
        self._parents = [-1]    # span index of the innermost open span
        self._wrappers: dict[int, object] = {}
        self._patches: list = []
        for layer_index, layer in enumerate(LAYERS):
            module = modules[layer]
            for owner, attr, fn in _entry_points(module):
                if id(fn) in self._wrappers:
                    continue
                name = f"{layer}.{attr}"
                self._wrappers[id(fn)] = self._wrap(
                    fn, layer_index, len(self.names),
                    layer == "surface" and attr.startswith("print"))
                self.names.append(name)
                self.layer_of.append(layer_index)
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, fn))
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._installed: list = []

    def _wrap(self, fn, layer: int, name_id: int, count_len: bool):
        stack, parents, spans = self._stack, self._parents, self.spans
        clock = time.process_time
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            base = len(spans)
            spans.extend((name_id, 0.0, 0.0, parents[-1], tracer.case))
            stack.append(layer)
            parents.append(base // SPAN)
            spans[base + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.raised[name_id, type(err).__name__] += 1
                raise
            finally:
                spans[base + 2] = clock()
                stack.pop()
                parents.pop()
            if count_len:
                tracer.print_bytes += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every reference to a layer entry point to its wrapper."""
        self._installed = []
        for owner, attr, fn in self._patches:
            setattr(owner, attr, self._wrappers[id(fn)])
            self._installed.append((owner, attr, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ttk" and not mod_name.startswith("ttk."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, fn in self._installed:
            setattr(owner, attr, fn)
        self._installed = []

    def reset(self) -> None:
        del self.spans[:]
        self.print_bytes = 0
        self.raised.clear()

    def layer_numbers(self) -> dict:
        """Calls, self time and the generate/surface splits of the spans
        recorded since the last ``reset``."""
        layer_of, names = self.layer_of, self.names
        buffer = self.spans
        name_ids = [int(x) for x in buffer[0::SPAN]]
        parents = [int(x) for x in buffer[3::SPAN]]
        durations = [end - start for start, end
                     in zip(buffer[1::SPAN], buffer[2::SPAN])]
        child = [0.0] * len(durations)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child[parent] += duration
        calls = Counter()
        self_s = Counter()
        kernel_s = parse_s = print_s = 0.0
        gen = LAYERS.index("generate")
        for name_id, parent, duration, inner in zip(
                name_ids, parents, durations, child):
            layer = layer_of[name_id]
            calls[layer] += 1
            self_s[layer] += duration - inner
            if parent >= 0 and layer_of[name_ids[parent]] == gen:
                kernel_s += duration
            name = names[name_id]
            if name.startswith(("surface.parse", "surface.read")):
                parse_s += duration
            elif name.startswith("surface.print"):
                print_s += duration
        # A draw attempt is one call of equations.build_instance on a
        # fresh generator; GenExhausted escaping it is a wasted attempt.
        build = self._name_ids.get("equations.build_instance", -1)
        attempts = name_ids.count(build)
        exhausted = self.raised[build, "GenExhausted"]
        out = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[index]
            out[f"{layer}.self_s"] = self_s[index]
        out["generate.kernel_s"] = kernel_s
        out["generate.attempts"] = attempts
        out["generate.exhausted"] = exhausted
        out["generate.yield_ratio"] = (
            (attempts - exhausted) / attempts if attempts else 0.0)
        out["surface.parse_s"] = parse_s
        out["surface.print_s"] = print_s
        out["surface.print_bytes"] = self.print_bytes
        return out

    def write(self, path, buffer) -> None:
        """Write the spans in ``buffer`` as gzipped tab-separated lines:
        span, parent, case, name, start, end (process CPU seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\tcase\tname\tstart\tend\n")
            for index, (name_id, start, end, parent, case) in enumerate(
                    spans_of(buffer)):
                out.write(f"{index}\t{parent}\t{case}\t{self.names[name_id]}"
                          f"\t{start:.9f}\t{end:.9f}\n")


class MemoTables:
    """Hits, misses and entries of each memo table, summed over snapshots."""

    def __init__(self, modules: dict) -> None:
        self.tables = {}
        for layer, names in MEMO_TABLES.items():
            for name in names:
                fn = getattr(modules[layer], name, None)
                self.tables[f"{layer}.{name}"] = (
                    fn if hasattr(fn, "cache_info") else None)
        self.totals = {name: [0, 0, 0] for name in self.tables}

    def reset(self) -> None:
        for total in self.totals.values():
            total[:] = [0, 0, 0]

    def snapshot(self) -> None:
        """Add the current counters; call just before the caches are cleared."""
        for name, fn in self.tables.items():
            if fn is not None:
                info = fn.cache_info()
                total = self.totals[name]
                total[0] += info.hits
                total[1] += info.misses
                total[2] += info.currsize

    def layer_numbers(self) -> dict:
        out = {}
        for layer in MEMO_TABLES:
            rows = [total for name, total in self.totals.items()
                    if name.startswith(layer + ".") and self.tables[name]]
            hits = sum(row[0] for row in rows)
            misses = sum(row[1] for row in rows)
            out[f"{layer}.memo_tables"] = len(rows)
            out[f"{layer}.memo_hits"] = hits
            out[f"{layer}.memo_misses"] = misses
            out[f"{layer}.memo_entries"] = sum(row[2] for row in rows)
            out[f"{layer}.memo_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
        for name in ("semantics.eval_ty", "semantics.eval_tm"):
            out[f"{name}.entries"] = self.totals[name][2]
        return out

    def table_numbers(self) -> dict:
        return {name: (None if self.tables[name] is None else tuple(total))
                for name, total in self.totals.items()}

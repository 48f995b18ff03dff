"""Span recorder for the traced run, and the per-layer metrics it yields.

`install` wraps every public function of the traced modules, in every
module namespace where it is bound, so calls follow the program's real
call order. A span records its name, start, end, parent span and case id;
spans stay in compact arrays until `write_tsv` writes them out at the
end. A generator (`enumerate_cycle_types`, `iter_inner_products`) is timed
only inside its own `next()` calls: its span's busy time is the sum of
those calls, and its start and end are the first and last of them.

Self time is a span's busy time minus the busy time of its child spans.
"""

from array import array
import functools
import gzip
import importlib
import inspect
import time

TRACED_MODULES = ("partitions", "characters", "kernels", "basecount", "oracle")
BINDING_MODULES = TRACED_MODULES + ("cli",)

# Inclusive time of the outermost span among the named functions.
LAYER_TIMES = {
    "partitions.enumerate_s": ("partitions.enumerate_cycle_types",),
    "partitions.class_data_s": ("partitions.class_data",),
    "characters.char_vector_s": ("characters.char_vector_subsets",
                                 "characters.char_vector_uniform_partitions"),
    "characters.sign_vector_s": ("characters.sign_vector",),
    "characters.inner_products_s": ("characters.inner_product",
                                    "characters.iter_inner_products",
                                    "characters.orbit_counts"),
    "kernels.table_s": ("kernels.uniform_partition_table",),
    "kernels.mask_s": ("kernels.mask_images",),
    "basecount.search_s": ("basecount.base_size_subsets",
                           "basecount.regular_orbit_count",
                           "basecount.base_size_wreath_subsets",
                           "basecount.large_base_bounds",
                           "basecount.base_size_partitions_action"),
    "oracle.build_s": ("oracle.parse_group_spec",),
    "oracle.base_search_s": ("oracle.base_size_bruteforce",),
    "oracle.controlling_s": ("oracle.is_base_controlling",),
    "oracle.regular_orbits_s": ("oracle.regular_orbits_on_tuples",),
    "oracle.orbit_counts_s": ("oracle.orbit_counts_bruteforce",),
    "cli.main_s": ("cli.main",),
}
# Self time summed over spans whose name has the given prefix.
SELF_TIMES = {
    "kernels.sweep_s": "kernels.count_fixed_partitions",
    "basecount.self_s": "basecount.",
    "cli.self_s": "cli.main",
}
# Number of spans among the named functions.
SPAN_COUNTS = {
    "characters.char_vector_calls": LAYER_TIMES["characters.char_vector_s"],
}


class SpanRecorder:
    """Spans of the traced run, one array per field."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.case = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.stack = []
        self.case_id = -1

    def __len__(self):
        return len(self.name)

    def _open(self, name_id, start):
        idx = len(self.name)
        self.name.append(name_id)
        self.case.append(self.case_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(start)
        self.busy.append(0.0)
        return idx

    def _wrap_function(self, fn, name_id):
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id, clock())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                stack.pop()
                self.end[idx] = now
                self.busy[idx] = now - self.start[idx]

        return traced

    def _wrap_generator(self, fn, name_id):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The span opens where the generator is created; it is timed
            # once iteration starts.
            return self._drive(fn(*args, **kwargs), self._open(name_id, -1.0))

        return traced

    def _drive(self, gen, idx):
        clock = time.perf_counter
        stack = self.stack
        try:
            while True:
                began = clock()
                if self.start[idx] < 0:
                    self.start[idx] = began
                stack.append(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    now = clock()
                    stack.pop()
                    self.end[idx] = now
                    self.busy[idx] += now - began
                yield item
        finally:
            gen.close()

    def install(self):
        """Wrap the traced modules' public functions and `cli.main`
        wherever they are bound; returns a function that undoes it."""
        modules = {name: importlib.import_module(f"basechar.{name}")
                   for name in BINDING_MODULES}
        targets = [(f"{name}.{attr}", fn)
                   for name in TRACED_MODULES
                   for attr, fn in vars(modules[name]).items()
                   if not attr.startswith("_") and inspect.isfunction(fn)
                   and fn.__module__ == modules[name].__name__]
        targets.append(("cli.main", modules["cli"].main))
        wrappers = {}
        for qualname, fn in targets:
            name_id = len(self.names)
            self.names.append(qualname)
            wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                    else self._wrap_function)
            wrappers[id(fn)] = (fn, wrap(fn, name_id))
        patched = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

        def restore():
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore

    def layer_metrics(self, first, stop):
        """Per-layer metrics of the spans first..stop-1 (one case run)."""
        names = [self.names[i] for i in self.name[first:stop]]
        child_busy = [0.0] * (stop - first)
        for i in range(first, stop):
            parent = self.parent[i]
            if parent >= first:
                child_busy[parent - first] += self.busy[i]
        metrics = {}
        for metric, members in LAYER_TIMES.items():
            members = set(members)
            total = 0.0
            for i, name in enumerate(names):
                if name in members and not self._has_ancestor(
                        first + i, first, names, members):
                    total += self.busy[first + i]
            metrics[metric] = total
        for metric, prefix in SELF_TIMES.items():
            metrics[metric] = sum(
                self.busy[first + i] - child_busy[i]
                for i, name in enumerate(names) if name.startswith(prefix))
        for metric, members in SPAN_COUNTS.items():
            metrics[metric] = sum(1 for name in names if name in members)
        metrics["trace.spans"] = stop - first
        return metrics

    def _has_ancestor(self, idx, first, names, members):
        parent = self.parent[idx]
        while parent >= first:
            if names[parent - first] in members:
                return True
            parent = self.parent[parent]
        return False

    def write_tsv(self, path, case_labels):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tcase\tname\tstart_s\tend_s\tbusy_s\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.parent[i]}\t"
                          f"{case_labels[self.case[i]]}\t"
                          f"{self.names[self.name[i]]}\t{self.start[i]:.6f}\t"
                          f"{self.end[i]:.6f}\t{self.busy[i]:.6f}\n")

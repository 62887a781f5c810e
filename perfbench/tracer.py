"""Run one spongeheat CLI command in this process, with a span around every
call into a layer.

    python3 perfbench/tracer.py TRACE_FILE ARG...

Imports numpy and then ``spongeheat.cli`` under timed spans, wraps every
public function of ``cli``, ``metrics``, ``analysis``, ``voxel`` and ``mesh``
(wherever a module binds it) in a span, runs ``cli.run(ARG...)`` and exits
with its code.  The command's stdout is left untouched.  Spans are kept in
memory and written to TRACE_FILE as JSON when the command ends, with counts
of the work the layers did, read from the wrapped functions' results, and
the process's peak resident memory at the end of each voxel and mesh call.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
import types

LAYERS = ("cli", "metrics", "analysis", "voxel", "mesh")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = {}
        self.peaks = {}

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self.observe(name, args, result)
            return result
        return traced

    def add(self, count: str, value) -> None:
        self.counts[count] = self.counts.get(count, 0) + value

    def most(self, count: str, value) -> None:
        self.counts[count] = max(self.counts.get(count, 0), value)

    def observe(self, name: str, args, result) -> None:
        layer = name.split(".", 1)[0]
        if layer in ("voxel", "mesh"):
            self.peaks[layer] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if name == "voxel.build_grid":
            self.add("voxel.cells", result.resolution**3)
            self.add("voxel.solid_cells", result.solid_count)
            self.most("voxel.packed_mb", result.packed.nbytes / 1e6)
        elif name == "voxel.count_exposed_faces":
            self.add("voxel.exposed_faces", result)
        elif name == "mesh.mesh_from_grid":
            self.add("mesh.triangles", result.triangle_count)
            self.most("mesh.buffer_mb", (result.triangles.nbytes + result.normals.nbytes) / 1e6)
        elif name in ("mesh.write_stl_binary", "mesh.write_obj"):
            self.add("mesh.bytes", result)
            if name == "mesh.write_obj":
                self.add("mesh.obj_triangles", args[0].triangle_count)
        elif name in ("analysis.emit_csv", "analysis.emit_json"):
            self.add("analysis.bytes", result)

    def instrument(self, modules) -> None:
        """Wrap each public function of the layer modules in every module
        that binds it, so calls between layers are traced too."""
        owners = {m.__name__: m.__name__.rsplit(".", 1)[1] for m in modules}
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in owners):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(f"{owners[obj.__module__]}.{obj.__name__}", obj)
                setattr(module, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    trace_file, args = argv[0], argv[1:]
    tracer = Tracer()
    imports = tracer.open("cli.import")
    numpy_import = tracer.open("cli.numpy_import")
    import numpy  # noqa: F401  (timed apart: the bulk of the import cost)
    tracer.close(numpy_import)
    modules = [importlib.import_module(f"spongeheat.{name}") for name in LAYERS]
    tracer.close(imports)
    tracer.instrument(modules)
    code = modules[0].run(args)
    sys.stdout.flush()
    with open(trace_file, "w") as sink:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "peaks": tracer.peaks}, sink)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

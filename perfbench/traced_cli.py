"""Run the hoyerstream command line with spans at its layer boundaries.

Usage: python perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Before ``hoyerstream.cli.main`` runs, every module-level function that one
hoyerstream module imported from another is replaced, in the importing
module's namespace, by a wrapper that records a span named
``<layer>.<function>``. Calls inside one module are not traced. The CLI
itself runs inside a root span ``cli.main``. Mixed-sign warnings are
counted instead of printed. Spans and counts go to SPANS_JSON when the
command ends, under a run id taken from the file name; the exit code is
the command's own.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import threading
from pathlib import Path
import warnings

from tracing import Tracer

PACKAGE = "hoyerstream"


def install(tracer: Tracer) -> int:
    """Wrap cross-module calls in every submodule; return how many were wrapped."""
    package = importlib.import_module(PACKAGE)
    modules = [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if not info.name.startswith("_")
    ]
    wrapped = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value) or not callable(value):
                continue
            owner = getattr(value, "__module__", None) or ""
            if owner == module.__name__ or not owner.startswith(PACKAGE + "."):
                continue
            # The kernel's implementation modules count as the kernels layer.
            layer = owner.rsplit(".", 1)[-1].lstrip("_").removesuffix("_py")
            setattr(module, attr, tracer.wrap(value, f"{layer}.{attr}"))
            wrapped += 1
    return wrapped


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(run_id=Path(spans_path).stem)
    wrapped = install(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    errors = importlib.import_module(f"{PACKAGE}.errors")
    mixed = getattr(errors, "MixedSignWarning", None)
    counts = {"mixed_sign_warnings": 0}
    lock = threading.Lock()
    show = warnings.showwarning

    def count_warning(message, category, *args, **kwargs):
        if mixed is not None and issubclass(category, mixed):
            with lock:
                counts["mixed_sign_warnings"] += 1
        else:
            show(message, category, *args, **kwargs)

    warnings.showwarning = count_warning
    if mixed is not None:
        warnings.simplefilter("always", mixed)
    code = 1
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": wrapped, "counts": counts, "spans": tracer.records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

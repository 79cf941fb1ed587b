"""Run one ``delius`` command with spans recorded around its layers.

Usage: ``python tracer.py <stages|layers> <spans.json> <delius args...>``

The wrappers live here, outside the program: an import hook patches
each ``delius`` module as it finishes loading, so every namespace that
binds a listed function (``dec.kmeans_fit`` as well as
``kmeans.kmeans_fit``) calls the wrapper, however lazily the package
imports its modules.  ``stages`` wraps only the stage entry points that
set-up time and stage times need, a handful of calls per process;
``layers`` wraps every function in ``LAYERS``.  Spans are kept in
memory and written as JSON when the command returns, with the names of
the functions that were found and wrapped: after the command, and after
its end time is taken, ``layers`` imports every module ``LAYERS`` names,
so a function that no longer exists can be told from one the command
did not call.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # before the other imports: cli.other_s counts from here

import functools  # noqa: E402
import importlib  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# Stage entry points -> the pipeline stage their outermost calls count toward.
STAGES = {
    "autoencoder.pretrain": "pretrain",
    "dec.dec_fit": "cluster",
    "autoencoder.encode": "cluster",
    "metrics.evaluate": "eval",
    "dataio.stratified_sample": "project",
    "projection.tsne_embed": "project",
    "projection.pca_fit": "project",
    "projection.pca_transform": "project",
    "baselines.run_pca_kmeans": "baseline",
    "baselines.run_ae_kmeans": "baseline",
    "plotting.render_scatter": "plot",
}


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _dense_macs(params) -> int:
    return sum(layer.w.size for layer in params.layers)


def _backward(a, result, parent):
    rows = a["output_grad"].shape[0]
    first = a["params"].layers[0].w.size
    # Weight gradient and input gradient cost 2 * rows * in * out each per
    # layer; the input gradient of layer 0 is returned and thrown away.
    return {
        "neural.backward.flops": 4 * rows * _dense_macs(a["params"]),
        "neural.backward.discarded_flops": 2 * rows * first,
    }


def _adam_blocks(a, result, parent):
    if parent == "neural.adam_step":
        return {}  # already counted by the enclosing adam_step
    return {"neural.adam.elements": sum(b.size for b in a["blocks"])}


def span_name(target: str) -> str:
    """``rng.Rng.normal`` -> ``rng.normal``: spans drop the class."""
    module, *_, attr = target.split(".")
    return f"{module}.{attr}"


def _dec_history(a, result, parent):
    history = result.history
    return {
        "dec.iterations": history.iterations_run,
        "dec.refreshes": len(history.records),
        "dec.converged": int(history.converged),
    }


# Every wrapped function of a layer -> what to count at its boundary, from
# its bound arguments ``a``, its result and the enclosing span's name.
LAYERS = {
    "rng.Rng.normal": lambda a, r, p: {"rng.normal.draws": r.size},
    "rng.Rng.permutation": lambda a, r, p: {"rng.permutation.elements": a["n"]},
    "dataio.read_features": lambda a, r, p: {"dataio.read_features.bytes": _size(a["path"])},
    "dataio.write_features": lambda a, r, p: {"dataio.write_features.bytes": _size(a["path"])},
    "dataio.read_assignments": None,
    "dataio.write_assignments": None,
    "dataio.stratified_sample": None,
    "neural.forward": lambda a, r, p: {
        "neural.forward.rows": a["x"].shape[0],
        "neural.forward.flops": 2 * a["x"].shape[0] * _dense_macs(a["params"]),
    },
    "neural.backward": _backward,
    "neural.adam_step": lambda a, r, p: {"neural.adam.elements": a["params"].n_params()},
    "neural.adam_step_blocks": _adam_blocks,
    "neural.init_params": None,
    "neural.save_checkpoint": lambda a, r, p: {"neural.save_checkpoint.bytes": _size(a["path"])},
    "neural.load_checkpoint": lambda a, r, p: {"neural.load_checkpoint.bytes": _size(a["path"])},
    "autoencoder.build": None,
    "autoencoder.pretrain": lambda a, r, p: {"autoencoder.pretrain.epochs": len(r[1].losses)},
    "autoencoder.encode": lambda a, r, p: {"autoencoder.encode.rows": r.shape[0]},
    "kmeans.kmeans_fit": lambda a, r, p: {
        "kmeans.kmeans_fit.restarts": r.restarts_run,
        "kmeans.kmeans_fit.points": len(a["points"]),
        "kmeans.kmeans_fit.n_iter": r.n_iter,
    },
    "dec.dec_fit": _dec_history,
    "dec.kl_grads": None,
    "dec.soft_assign": lambda a, r, p: {"dec.soft_assign.rows": r.shape[0]},
    "dec.target_distribution": None,
    "dec.kl_loss": None,
    "metrics.evaluate": None,
    "metrics.silhouette": lambda a, r, p: {
        "metrics.silhouette.n": len(a["points"]),
        "metrics.silhouette.pairwise_bytes": 8 * len(a["points"]) ** 2,
    },
    "metrics.calinski_harabasz": None,
    "metrics.clustering_accuracy": None,
    "projection.joint_affinities": None,
    "projection.lowdim_gradient": None,
    "projection.tsne_embed": None,
    "projection.pca_fit": None,
    "projection.pca_transform": None,
    "baselines.run_pca_kmeans": None,
    "baselines.run_ae_kmeans": None,
    "plotting.render_scatter": lambda a, r, p: {
        "plotting.render_scatter.bytes": len(r.encode("utf-8"))
    },
}


# Counts not named after the function that measures them -> the span
# names (any one suffices) whose functions produce them.
COUNTED_BY = {
    "dec.iterations": ("dec.dec_fit",),
    "dec.refreshes": ("dec.dec_fit",),
    "dec.converged": ("dec.dec_fit",),
    "neural.adam.elements": ("neural.adam_step", "neural.adam_step_blocks"),
    "neural.adam.bytes": ("neural.adam_step", "neural.adam_step_blocks"),
}


def counted_by(metric: str) -> tuple[str, ...]:
    """Span names whose functions yield ``metric``; empty if the harness
    itself measures it (``cli.*``, ``stage.*``, ``trace.*``)."""
    if metric.split(".")[0] in ("cli", "stage", "trace"):
        return ()
    return COUNTED_BY.get(metric, (metric.rpartition(".")[0],))


class Recorder:
    """Wraps functions so that each call appends a span to ``spans``."""

    def __init__(self, targets: dict):
        self.targets = targets  # "module.function" or "module.Class.method" -> measure
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self.wrapped: set[str] = set()  # span names of the targets found
        self.cost = [0.0]  # seconds spent patching and in the wrappers' own bookkeeping

    def _wrap(self, name: str, fn, measure):
        spans, stack, cost, clock, cpu = (self.spans, self._stack, self.cost, time.monotonic,
                                          time.process_time)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "counts": {}}
            stack.append(len(spans))
            spans.append(span)
            if parent is None:  # CPU seconds since the process began: set-up time
                span["cpu_start"] = cpu()
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if measure is not None:
                caller = spans[parent]["name"] if parent is not None else None
                try:
                    span["counts"] = measure(signature.bind(*args, **kwargs).arguments, result, caller)
                except Exception:  # a changed signature must not fail the command
                    span["counts"] = {f"{name}.measure_failed": 1}
            cost[0] += clock() - entered - (span["end"] - span["start"])
            return result

        return wrapper

    def patch(self, module) -> None:
        """Wrap the targets ``module`` defines, then rebind every name it holds
        for a wrapped original."""
        began = time.monotonic()
        short = module.__name__.removeprefix("delius.")
        for target, measure in self.targets.items():
            owner_name, _, attr = target.rpartition(".")
            owner_module, _, cls = owner_name.partition(".")
            if owner_module != short:
                continue
            owner = getattr(module, cls, None) if cls else module
            fn = getattr(owner, attr, None)
            if fn is None or id(fn) in self._wrappers:
                continue
            wrapper = self._wrap(span_name(target), fn, measure)
            self._wrappers[id(fn)] = (fn, wrapper)
            self.wrapped.add(span_name(target))
            setattr(owner, attr, wrapper)
        for attr, value in list(vars(module).items()):
            entry = self._wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
        self.cost[0] += time.monotonic() - began


class _PatchOnLoad(importlib.abc.MetaPathFinder):
    """Finds ``delius`` modules as usual and patches each once it has run."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def find_spec(self, name, path, target=None):
        if name != "delius" and not name.startswith("delius."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.recorder.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def main(argv: list[str]) -> int:
    mode, out_path, args = argv[0], argv[1], argv[2:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p) != here]  # no harness shadowing
    targets = LAYERS if mode == "layers" else dict.fromkeys(STAGES)
    recorder = Recorder(targets)
    sys.meta_path.insert(0, _PatchOnLoad(recorder))
    record = {"start": STARTED, "import_s": None, "threads": None, "spans": recorder.spans,
              "wrapped": []}
    code = 1
    try:
        began = time.monotonic()
        from delius.cli import main as delius_main

        record["import_s"] = time.monotonic() - began
        code = delius_main(args)
    finally:
        record["end"] = time.monotonic()
        record["threads"] = _thread_count()
        if mode == "layers":
            for module in sorted({target.split(".")[0] for target in targets}):
                try:
                    importlib.import_module(f"delius.{module}")
                except ImportError:
                    pass  # its functions stay unwrapped and read as absent
        record["trace_s"] = recorder.cost[0]
        record["wrapped"] = sorted(recorder.wrapped)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

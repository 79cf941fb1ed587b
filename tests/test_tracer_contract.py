"""The benchmark tracer's view of the package still matches the package.

``perfbench/tracer.py`` wraps functions by dotted name and its measures
read call arguments by parameter name.  A renamed function or parameter
does not fail a traced run (the wrapper records ``measure_failed`` and
the counter goes missing), so the contract is pinned here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Target -> the parameters its measure in ``LAYERS`` reads by name.
_MEASURED_PARAMETERS = {
    "neural.adam_step": ("params",),
    "neural.adam_step_blocks": ("blocks",),
    "neural.backward": ("params", "output_grad"),
    "neural.forward": ("params", "x"),
    "rng.Rng.permutation": ("n",),
    "dataio.read_features": ("path",),
    "dataio.write_features": ("path",),
    "neural.save_checkpoint": ("path",),
    "neural.load_checkpoint": ("path",),
    "kmeans.kmeans_fit": ("points",),
    "metrics.silhouette": ("points",),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(target: str):
    module, *attrs = target.split(".")
    owner = importlib.import_module(f"delius.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


def test_every_traced_target_resolves(tracer):
    targets = sorted(set(tracer.STAGES) | set(tracer.LAYERS))
    missing = []
    for target in targets:
        try:
            if not callable(_resolve(target)):
                missing.append(target)
        except AttributeError:
            missing.append(target)
    assert not missing, f"tracer targets absent from delius: {missing}"


@pytest.mark.parametrize("target", sorted(_MEASURED_PARAMETERS))
def test_measured_parameters_exist(tracer, target):
    assert tracer.LAYERS.get(target) is not None, f"{target} has no measure in LAYERS"
    parameters = inspect.signature(_resolve(target)).parameters
    for name in _MEASURED_PARAMETERS[target]:
        assert name in parameters, f"{target} lost the parameter {name!r} the tracer reads"

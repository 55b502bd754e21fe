"""The benchmark's per-layer metrics key their spans by qualified name
(`perfbench/tracing.py`, `SPAN_KEYS`). A name that no longer exists in
`mmcl` reads as a zero metric instead of an error, so pin every name here."""

import importlib
import importlib.util
import inspect
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
# the gated LSTM runs `encoders.lstm_sequence` under `fusion.mlstm_forward`; this
# entry is stale and waits for the next change to the benchmark
KNOWN_STALE = {("fusion", "mlstm_step")}


def _span_keys():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPAN_KEYS


def _traced(layer, qualname):
    """Whether the tracer wraps `qualname`: a function defined in
    `mmcl.<layer>`, or a method defined on a class of that module."""
    mod = importlib.import_module(f"mmcl.{layer}")
    owner_name, _, attr = qualname.rpartition(".")
    owner = vars(mod).get(owner_name) if owner_name else mod
    if owner is None or (owner_name and not inspect.isclass(owner)):
        return False
    if getattr(owner, "__module__", mod.__name__) != mod.__name__:
        return False
    obj = vars(owner).get(attr)
    return inspect.isfunction(obj) and obj.__module__ == mod.__name__


def test_every_span_key_names_a_traced_function():
    stale = {key for key in _span_keys() if not _traced(*key)}
    assert stale == KNOWN_STALE

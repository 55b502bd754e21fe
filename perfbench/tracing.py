"""Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.install()` rebinds the public functions and public methods of every
`mmcl` module (except `cli`, which only parses flags) to wrappers that record
spans, and wraps the public `Tensor` ops and `autodiff` functions with
counters. `uninstall()` restores every original binding, so untraced and
traced iterations can alternate in one process.

Time is charged to spans by self time: a span's duration minus the duration
of its direct child spans. Each span has a metric key. Entry points named in
`SPAN_KEYS` carry their own key. Any other public function inherits the key
of the enclosing non-harness span (so `encoders.lstm_gates` called by the
gated LSTM is charged to `fusion.mlstm`), or gets `<layer>.<name>` when the
harness or the benchmark calls it directly. Spans are aggregated as they
close instead of being stored, so memory stays flat over long runs.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import operator
import pkgutil
import time
import weakref

import numpy as np

# (module, qualified name) -> metric key
SPAN_KEYS = {
    ("autodiff", "Tensor.backward"): "autodiff.backward",
    ("encoders", "MLPEncoder.forward"): "encoders.mlp",
    ("encoders", "LSTMEncoder.forward"): "encoders.lstm",
    ("losses", "weighted_ovo_loss"): "losses.weighted_ovo",
    ("losses", "infonce_pair_loss"): "losses.infonce_pair",
    ("fusion", "mlstm_forward"): "fusion.mlstm",
    ("fusion", "mlstm_step"): "fusion.mlstm",
    ("fusion", "ClassifierHead.forward"): "fusion.head",
    ("fusion", "concat_fuse"): "fusion.concat",
    ("fusion", "weighted_bce"): "fusion.loss",
    ("fusion", "multilabel_ce"): "fusion.loss",
    ("metrics", "auroc"): "metrics.auroc",
    ("metrics", "top5_alignment_accuracy"): "metrics.top5",
    ("attribution", "integrated_gradients"): "attribution.ig",
}
# every public function of these layers carries the layer's own key
LAYER_KEYS = {"harness": "harness", "kernels": "kernels"}
SKIP_MODULES = {"cli", "errors"}
HARNESS_TRAINING = {"pretrain", "finetune"}
OP_COUNTS = ("matmul", "add", "mul", "sigmoid", "tanh")


def library_modules():
    """Every `mmcl` submodule that forms a layer, discovered at run time."""
    import mmcl

    mods = {}
    for info in pkgutil.iter_modules(mmcl.__path__):
        if info.name not in SKIP_MODULES:
            mods[info.name] = importlib.import_module(f"mmcl.{info.name}")
    return mods


def _op_name(attr):
    """`__radd__` -> `add`, `__matmul__` -> `matmul`, `sigmoid` -> `sigmoid`."""
    if attr.startswith("__") and attr.endswith("__"):
        stem = attr[2:-2]
        if stem.startswith("r") and hasattr(operator, stem[1:]):
            return stem[1:]
        return stem
    return attr


def _is_operator_dunder(attr):
    if not (attr.startswith("__") and attr.endswith("__")):
        return False
    stem = attr[2:-2]
    return hasattr(operator, stem) or (stem.startswith("r") and hasattr(operator, stem[1:]))


class Tracer:
    def __init__(self):
        self.mods = library_modules()
        self.autodiff = self.mods["autodiff"]
        self._restore = []
        self.reset()

    # -- per-iteration state ----------------------------------------------

    def reset(self):
        self.self_s = {}
        self.calls = {}
        self.ops = {}
        self.outer_ops = 0
        self.grad_ops = 0
        self.kernel_bytes = 0
        self.grad_by_call = []  # [useful, written] gradient elements per training call
        self.pretrain_keys = []
        self.step_gaps_ms = []
        self._last_step = {}
        self._stack = []
        self._op_depth = 0
        self._live_params = []

    # -- spans --------------------------------------------------------------

    def _enter(self, key, layer, name):
        parent = self._stack[-1] if self._stack else None
        if key is None and parent is not None and not parent[0].startswith("harness"):
            key = parent[0]  # a helper: charged to its caller, not counted
        else:
            key = key or f"{layer}.{name}"
            self.calls[key] = self.calls.get(key, 0) + 1
        frame = [key, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] = self.self_s.get(frame[0], 0.0) + dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur

    def _span(self, fn, layer, name, key, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = tracer._enter(key, layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- hooks for particular layers -----------------------------------------

    def _kernel_span(self, fn, name):
        tracer = self
        span = self._span(fn, "kernels", name, "kernels")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = span(*args, **kwargs)
            # bytes computed = array operands read plus the array written
            tracer.kernel_bytes += sum(a.nbytes for a in args if isinstance(a, np.ndarray))
            if isinstance(out, np.ndarray):
                tracer.kernel_bytes += out.nbytes
            return out

        return wrapper

    def _before_training(self, name):
        def hook(args, kwargs):
            self._live_params = []
            self.grad_by_call.append([0, 0])
            if name == "pretrain":
                config = args[0] if args else kwargs["config"]
                self.pretrain_keys.append(json.dumps(dataclasses.asdict(config), sort_keys=True))

        return hook

    def _before_step(self, args, kwargs):
        opt = args[0]
        now = time.perf_counter()
        last = self._last_step.get(id(opt))
        if last is not None and last[0] is opt:
            self.step_gaps_ms.append((now - last[1]) * 1e3)
        self._last_step[id(opt)] = (opt, now)
        updated = {id(p) for p in opt.params}
        for ref in self._live_params:
            p = ref()
            if p is None or p.grad is None:
                continue
            self.grad_by_call[-1][0] += p.grad.size if id(p) in updated else 0
            self.grad_by_call[-1][1] += p.grad.size

    def _param_init(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(param, *args, **kwargs):
            init(param, *args, **kwargs)
            tracer._live_params.append(weakref.ref(param))

        return wrapper

    def _op(self, fn, name):
        tracer = self
        tensor_cls = self.autodiff.Tensor

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._op_depth == 0
            tracer._op_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._op_depth -= 1
            if outer and isinstance(out, tensor_cls):
                tracer.outer_ops += 1
                tracer.ops[name] = tracer.ops.get(name, 0) + 1
                if out.requires_grad:
                    tracer.grad_ops += 1
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapped):
        """Replace every binding of `original` in the library's namespaces,
        including names imported with `from .x import y`."""
        import mmcl

        for mod in [mmcl, *self.mods.values()]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _wrap_tensor(self):
        tensor_cls = self.autodiff.Tensor
        probe = tensor_cls(np.ones((2, 2)), requires_grad=True)
        for attr, value in list(vars(tensor_cls).items()):
            if attr == "backward":
                key = SPAN_KEYS[("autodiff", "Tensor.backward")]
                self._set(tensor_cls, attr, self._span(value, "autodiff", attr, key))
            elif isinstance(value, property) and not attr.startswith("_"):
                # a property is an op when it yields a Tensor (`T`, not `shape`)
                if isinstance(getattr(probe, attr), tensor_cls):
                    self._set(tensor_cls, attr, property(self._op(value.fget, attr)))
            elif inspect.isfunction(value) and (not attr.startswith("_")
                                                or _is_operator_dunder(attr)):
                self._set(tensor_cls, attr, self._op(value, _op_name(attr)))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._wrap_tensor()
        optim_mod = self.mods.get("optim")
        wrapped_ids = set()
        for layer, mod in self.mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or id(obj) in wrapped_ids
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped_ids.add(id(obj))
                if inspect.isfunction(obj):
                    if layer == "autodiff":
                        wrapped = self._op(obj, name)
                    elif layer == "kernels":
                        wrapped = self._kernel_span(obj, name)
                    else:
                        before = (self._before_training(name)
                                  if layer == "harness" and name in HARNESS_TRAINING else None)
                        key = SPAN_KEYS.get((layer, name), LAYER_KEYS.get(layer))
                        wrapped = self._span(obj, layer, name, key, before)
                    self._rebind_everywhere(obj, wrapped)
                elif inspect.isclass(obj) and obj is not self.autodiff.Tensor:
                    if obj is getattr(self.autodiff, "Parameter", None):
                        self._set(obj, "__init__", self._param_init(obj.__init__))
                    for attr, value in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(value):
                            continue
                        qual = f"{name}.{attr}"
                        if mod is optim_mod and attr == "step":
                            wrapped = self._span(value, layer, qual, "optim.step",
                                                 self._before_step)
                        else:
                            key = SPAN_KEYS.get((layer, qual), LAYER_KEYS.get(layer))
                            wrapped = self._span(value, layer, qual, key)
                        self._set(obj, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """Counts and self times of the iteration since the last reset."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "ops": dict(self.ops),
            "outer_ops": self.outer_ops,
            "grad_ops": self.grad_ops,
            "kernel_bytes": self.kernel_bytes,
            "grad_by_call": [list(c) for c in self.grad_by_call],
            "pretrain_keys": list(self.pretrain_keys),
            "step_gaps_ms": list(self.step_gaps_ms),
        }

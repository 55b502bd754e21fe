"""Every public op of the autodiff core, and every public function and
method of the optimizer, the encoders, the fusion layer and the losses, runs
in production. The library differentiates through its own fused nodes, and
an op that no training, fine-tuning or attribution run reaches belongs
beside the tests (`elementary_ops.py`), not in `mmcl.autodiff`; a path that
no run takes is not kept at all. Calls are matched by code object, so a
function imported under another name still counts."""

import inspect
import sys

import pytest

from mmcl import autodiff, encoders, fusion, losses, optim
from mmcl.cohort import default_five_modality_spec, generate
from mmcl.harness import RunConfig, finetune, modality_attribution, pretrain


def _public_ops(module):
    """Code object -> qualified name of each public function of `module`
    and each public method, operator or property of its classes."""
    ops = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            ops[obj.__code__] = name
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_") and not attr.startswith("__"):
                    continue
                func = member.fget if isinstance(member, property) else member
                func = getattr(func, "__func__", func)  # a static or class method
                if inspect.isfunction(func):
                    ops[func.__code__] = f"{name}.{attr}"
    return ops


def _production_runs():
    """Tiny runs of every verb that trains or reads a model: pretrain at
    K = 2 (InfoNCE) and K = 3 (weighted OvO), each fine-tuning regime, a
    multilabel fine-tune, and integrated gradients."""
    cohort = generate(default_five_modality_spec(120, seed=0))
    pair, triple = ["text_a", "text_b"], ["text_a", "image", "series"]

    def cfg(subset, regime, task="binary"):
        return RunConfig(subset, regime, task=task, max_epochs=1, batch_size=16, seed=0)

    pretrain(cfg(pair, "contrastive_pretrain"), cohort)
    pre, _ = pretrain(cfg(triple, "contrastive_pretrain"), cohort)
    finetune(cfg(triple, "frozen_finetune"), cohort, pre)
    finetune(cfg(triple, "mlstm"), cohort, pre)
    supervised, _, _ = finetune(cfg(triple, "supervised_baseline"), cohort)
    finetune(cfg(pair, "supervised_baseline", "multilabel"), cohort)
    modality_attribution(cfg(triple, "supervised_baseline"), cohort, supervised, steps=4,
                         max_samples=2)


@pytest.fixture(scope="module")
def reached():
    """The code objects that the production runs call."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _production_runs()
    finally:
        sys.setprofile(previous)
    return codes


def test_every_public_autodiff_op_runs_in_production(reached):
    ops = _public_ops(autodiff)
    assert sorted(ops[code] for code in ops.keys() - reached) == []


def test_every_public_optim_method_runs_in_production(reached):
    ops = _public_ops(optim)
    assert sorted(ops[code] for code in ops.keys() - reached) == []


@pytest.mark.parametrize("module", [encoders, fusion, losses],
                         ids=lambda module: module.__name__.rsplit(".", 1)[1])
def test_every_public_model_function_runs_in_production(reached, module):
    ops = _public_ops(module)
    assert sorted(ops[code] for code in ops.keys() - reached) == []

"""Public-API surface stability: exports exist, are documented, and work."""

import importlib
import inspect

import pytest

import repro
from repro.serving.disagg import (
    ChunkedPrefillPoolStage,
    DecodePoolStage,
    DisaggregatedCore,
    PrefillPoolStage,
    TransferLinkStage,
)
from repro.serving.fleet import FleetCore
from repro.serving.router import RouterStage
from repro.serving.serve import ColocatedStage, ServingCore

PACKAGES = [
    "repro",
    "repro.bf16",
    "repro.codecs",
    "repro.tcatbe",
    "repro.gpu",
    "repro.kernels",
    "repro.serving",
    "repro.core",
    "repro.analysis",
    "repro.extensions",
    "repro.experiments",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, package

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestPublicDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_callable_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{package}.{name}")
        assert not undocumented, undocumented


#: Methods the layer profiler (``perfbench/layers.py``) wraps through
#: ``cls.__dict__[attr]``: each must live in that class's own body.
OWN_METHODS = [
    (ServingCore, "__init__"),
    (DisaggregatedCore, "__init__"),
    (FleetCore, "__init__"),
    (ColocatedStage, "advance"),
    (PrefillPoolStage, "advance"),
    (ChunkedPrefillPoolStage, "advance"),
    (TransferLinkStage, "advance"),
    (DecodePoolStage, "advance"),
    (RouterStage, "advance"),
]


class TestProfilerWrapContract:
    """A method inherited from a shared base would make the traced
    benchmark run fail with ``KeyError`` while every other test stays
    green."""

    @pytest.mark.parametrize(
        "cls, attr", OWN_METHODS,
        ids=[f"{cls.__name__}.{attr}" for cls, attr in OWN_METHODS],
    )
    def test_defined_in_own_class_body(self, cls, attr):
        assert attr in vars(cls)


class TestTopLevelWorkflow:
    def test_registries_consistent(self):
        assert set(repro.GPUS) == {
            "rtx4090", "l40s", "rtx5090", "a100", "h800"
        }
        assert len(repro.MODELS) == 11
        assert set(repro.BACKENDS) == {
            "zipserv", "vllm", "transformers", "dfloat11"
        }

    def test_readme_quickstart_works(self):
        """The README's quickstart snippet, executed verbatim-ish."""
        import numpy as np

        from repro import ZipServ, compress_weights, decompress_weights
        from repro.bf16 import gaussian_bf16_matrix

        w = gaussian_bf16_matrix(512, 512, sigma=0.015)
        m = compress_weights(w)
        assert np.array_equal(decompress_weights(m), w)
        assert 10.8 < m.bits_per_element < 11.6

        zs = ZipServ(model="llama3.1-8b", gpu="rtx4090")
        summary = zs.compression_report().summary()
        assert "GiB" in summary
        assert 8.5 < zs.memory_plan.kv_gib < 10.0
        res = zs.generate(batch_size=32, prompt_len=128, output_len=64)
        assert res.throughput_tok_s > 500

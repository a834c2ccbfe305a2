"""Public-API surface tests: imports, exports, docstrings, version.

A downstream user's first contact with the package is its import
surface; these tests pin it down so refactors cannot silently drop
documented entry points.
"""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.achlioptas",
    "repro.core.defuzz",
    "repro.core.genetic",
    "repro.core.membership",
    "repro.core.metrics",
    "repro.core.nfc",
    "repro.core.pipeline",
    "repro.core.scg",
    "repro.core.training",
    "repro.core.validation",
    "repro.fixedpoint",
    "repro.fixedpoint.codegen",
    "repro.fixedpoint.convert",
    "repro.fixedpoint.integer_nfc",
    "repro.fixedpoint.linearize",
    "repro.fixedpoint.packed_matrix",
    "repro.fixedpoint.qformat",
    "repro.ecg",
    "repro.ecg.database",
    "repro.ecg.mitbih",
    "repro.ecg.morphologies",
    "repro.ecg.noise_stress",
    "repro.ecg.resample",
    "repro.ecg.segmentation",
    "repro.ecg.subjects",
    "repro.ecg.synth",
    "repro.dsp",
    "repro.dsp.delineation",
    "repro.dsp.delineation_eval",
    "repro.dsp.mmd",
    "repro.dsp.morphological",
    "repro.dsp.peak_detection",
    "repro.dsp.streaming",
    "repro.dsp.wavelet",
    "repro.baselines",
    "repro.platform",
    "repro.platform.battery",
    "repro.platform.cpu",
    "repro.platform.energy",
    "repro.platform.icyheart",
    "repro.platform.memory",
    "repro.platform.node_sim",
    "repro.platform.opcount",
    "repro.platform.profiles",
    "repro.platform.radio",
    "repro.experiments",
    "repro.experiments.alpha_tuning",
    "repro.experiments.cross_subject",
    "repro.experiments.datasets",
    "repro.experiments.energy",
    "repro.experiments.figure4",
    "repro.experiments.figure5",
    "repro.experiments.multilead",
    "repro.experiments.noise_robustness",
    "repro.experiments.report",
    "repro.experiments.table2",
    "repro.experiments.table3",
    "repro.serving",
    "repro.serving.analytics",
    "repro.serving.durability",
    "repro.serving.engine",
    "repro.serving.executors",
    "repro.serving.federation",
    "repro.serving.gateway",
    "repro.serving.loadgen",
    "repro.serving.net",
    "repro.serving.net.client",
    "repro.serving.net.protocol",
    "repro.serving.net.server",
    "repro.serving.pool",
    "repro.serving.results",
    "repro.serving.sharded",
    "repro.io",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 40


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_package_all_exports_resolve():
    import repro.core
    import repro.dsp
    import repro.ecg
    import repro.fixedpoint
    import repro.platform

    for package in (repro.core, repro.dsp, repro.ecg, repro.fixedpoint, repro.platform):
        for name in package.__all__:
            assert hasattr(package, name), f"{package.__name__}.{name} missing"


def test_serving_exports_resolve_without_the_inbox_layer():
    """``repro.serving`` exports only what exists: the sharded pool's
    bounded inboxes are gone, names and validator alike."""
    import repro.serving
    import repro.serving.executors

    for name in repro.serving.__all__:
        assert hasattr(repro.serving, name), f"repro.serving.{name} missing"
    for name in ("SessionInbox", "INBOX_POLICIES"):
        assert name not in repro.serving.__all__
        assert not hasattr(repro.serving, name)
    assert not hasattr(repro.serving.executors, "validate_inbox_policy")


def test_public_classes_have_docstrings():
    from repro.core.nfc import NeuroFuzzyClassifier
    from repro.core.pipeline import RPClassifierPipeline
    from repro.fixedpoint.convert import EmbeddedClassifier
    from repro.platform.node_sim import NodeSimulator

    for cls in (NeuroFuzzyClassifier, RPClassifierPipeline, EmbeddedClassifier, NodeSimulator):
        assert cls.__doc__
        for name, attr in vars(cls).items():
            if callable(attr) and not name.startswith("_"):
                assert attr.__doc__, f"{cls.__name__}.{name} lacks a docstring"

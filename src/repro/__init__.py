"""Reproduction of "A Methodology for Embedded Classification of Heartbeats
Using Random Projections" (Braojos, Ansaloni, Atienza — DATE 2013).

The package is organised as one subpackage per subsystem:

``repro.core``
    The paper's primary contribution: Achlioptas random projections, the
    three-layer neuro-fuzzy classifier (NFC), scaled-conjugate-gradient
    training, genetic optimization of the projection matrix, and the
    NDR/ARR figures of merit.
``repro.fixedpoint``
    The resource-constrained optimization phase: membership-function
    linearization, integer block-floating-point fuzzification, 2-bit
    packed projection matrices, and the float-to-embedded converter.
``repro.ecg``
    A synthetic MIT-BIH-like ECG substrate (beat morphologies for the
    N / V / L classes, record synthesis with realistic noise, database
    containers, segmentation, downsampling).
``repro.dsp``
    The embedded signal-processing chain: morphological filtering,
    dyadic wavelet transform, wavelet-based R-peak detection and
    multi-scale morphological-derivative (MMD) delineation.
``repro.baselines``
    PCA / DCT / DWT feature-extraction baselines from the paper's
    related-work comparison.
``repro.platform``
    An operation-level model of the IcyHeart WBSN SoC: cycle counting,
    duty cycles, code/data memory and radio energy.
``repro.serving``
    The serving layer: multi-record / multi-stream batch execution
    (one front-end row pass per block over every stream, one
    fleet-wide classifier pass), and the live-session
    ``StreamGateway`` multiplexing many open streams into
    cross-session classifier batches.
``repro.experiments``
    Harnesses that regenerate every table and figure of the paper.

Quickstart
----------
>>> from repro.experiments.datasets import make_beat_datasets
>>> from repro.core.pipeline import RPClassifierPipeline
>>> data = make_beat_datasets(scale=0.05, seed=7)
>>> pipe = RPClassifierPipeline.train(data.train1, data.train2, n_coefficients=8, seed=7)
>>> result = pipe.evaluate(data.test)
>>> result.arr > 0.9
True
"""

from repro._version import __version__

__all__ = ["__version__"]

"""End-to-end RP classifier pipeline (project → fuzzify → defuzzify).

:class:`RPClassifierPipeline` bundles a trained projection, NFC and
defuzzification coefficient into the object the rest of the repository
consumes: examples call :meth:`predict` on beat matrices, experiments
call :meth:`evaluate` on labeled sets, and the embedded path is derived
via :meth:`to_embedded` (which delegates to
:mod:`repro.fixedpoint.convert`).

``alpha`` is deliberately mutable-by-copy: the paper tunes
``alpha_test`` independently of ``alpha_train`` "giving the opportunity
to adjust the ratio of detected normal and abnormal beats"; use
:meth:`with_alpha` / :meth:`tuned_for` for that.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.core.achlioptas import AchlioptasMatrix
from repro.core.defuzz import defuzzify, sweep_alpha, tune_alpha
from repro.core.metrics import ClassificationReport
from repro.core.nfc import NeuroFuzzyClassifier
from repro.core.training import TrainingConfig, TrainedClassifier, train_classifier
from repro.ecg.mitbih import LabeledBeats


@dataclass(frozen=True)
class RPClassifierPipeline:
    """A deployable RP + NFC classifier.

    Attributes
    ----------
    projection:
        Achlioptas matrix (k x d).
    nfc:
        Fitted neuro-fuzzy classifier.
    alpha:
        Defuzzification coefficient used by :meth:`predict`.
    """

    projection: AchlioptasMatrix
    nfc: NeuroFuzzyClassifier
    alpha: float

    def __post_init__(self) -> None:
        if self.projection.n_coefficients != self.nfc.n_coefficients:
            raise ValueError("projection and NFC disagree on k")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")

    def __getstate__(self) -> dict:
        """Pickle without the fuzzy-value memo: it holds a ``weakref``
        to the last evaluated beat matrix (unpicklable), and is only a
        per-process cache anyway — e.g. the sharded gateway ships the
        pipeline to its worker processes and must not drag the memo
        along."""
        state = dict(self.__dict__)
        state.pop("_fuzzy_cache", None)
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        train1: LabeledBeats,
        train2: LabeledBeats,
        n_coefficients: int = 8,
        seed: int | None = None,
        config: TrainingConfig | None = None,
    ) -> "RPClassifierPipeline":
        """Train with the paper's two-step procedure and wrap the result."""
        if config is None:
            config = TrainingConfig(n_coefficients=n_coefficients)
        elif config.n_coefficients != n_coefficients:
            config = replace(config, n_coefficients=n_coefficients)
        trained = train_classifier(train1, train2, config, seed=seed)
        return cls.from_trained(trained)

    @classmethod
    def from_trained(cls, trained: TrainedClassifier) -> "RPClassifierPipeline":
        """Wrap a :class:`TrainedClassifier`."""
        return cls(trained.projection, trained.nfc, trained.alpha_train)

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_alpha(self, alpha: float) -> "RPClassifierPipeline":
        """Same classifier, different defuzzification coefficient.

        Projection and NFC are unchanged, so the memoized fuzzy values
        carry over: ``tuned_for`` followed by ``evaluate`` on the same
        beats does not re-project.
        """
        clone = replace(self, alpha=alpha)
        cached = getattr(self, "_fuzzy_cache", None)
        if cached is not None:
            object.__setattr__(clone, "_fuzzy_cache", cached)
        return clone

    def with_shape(self, shape: str) -> "RPClassifierPipeline":
        """Same parameters, different membership shape (Figure 5 rows)."""
        return replace(self, nfc=self.nfc.with_shape(shape))

    def tuned_for(self, beats: LabeledBeats, target_arr: float) -> "RPClassifierPipeline":
        """Re-tune ``alpha_test`` for an ARR target on labeled beats."""
        fuzzy = self.fuzzy_values(beats.X)
        return self.with_alpha(tune_alpha(fuzzy, beats.y, target_arr))

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def project(self, X: np.ndarray) -> np.ndarray:
        """Random projection of beats: ``(n, d) -> (n, k)``."""
        return self.projection.project(X)

    @staticmethod
    def _fingerprint(X: np.ndarray) -> tuple[float, float]:
        """Cheap content fingerprint: plain sum + position-weighted sum.

        The plain sum alone misses balanced in-place edits
        (``X[i] += c; X[j] -= c``); weighting each element by its
        position catches those and element swaps.  Deliberate
        collisions remain possible — this guards against accidental
        mutation, not adversaries.
        """
        flat = np.asarray(X, dtype=float).ravel()
        weights = np.arange(1.0, flat.size + 1.0)
        return float(flat.sum()), float(np.dot(flat, weights))

    def fuzzy_values(self, X: np.ndarray) -> np.ndarray:
        """Per-class fuzzy values of beats (unit max per beat).

        The most recent result is memoized per input array:
        :meth:`sweep` followed by :meth:`tuned_for` — or
        :meth:`evaluate` at several alphas — on the same beat matrix
        shares one projection + fuzzification pass instead of
        re-projecting.  The cache keys on array identity *plus* a
        content fingerprint (so in-place mutation of ``X`` is
        detected) and holds the input only weakly (so it never pins a
        large evaluation matrix in memory).
        """
        fingerprint = None
        cached = getattr(self, "_fuzzy_cache", None)
        if cached is not None:
            ref, cached_fingerprint, cached_values = cached
            if ref() is X:
                fingerprint = self._fingerprint(X)
                if fingerprint == cached_fingerprint:
                    return cached_values
        values = self.nfc.fuzzy_values(self.project(X))
        try:
            ref = weakref.ref(X)
        except TypeError:
            return values  # non-weakrefable input (e.g. a list): skip caching
        if fingerprint is None:
            fingerprint = self._fingerprint(X)
        object.__setattr__(self, "_fuzzy_cache", (ref, fingerprint, values))
        return values

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Defuzzified labels (class index or Unknown)."""
        return defuzzify(np.atleast_2d(self.fuzzy_values(X)), self.alpha)

    def evaluate(self, beats: LabeledBeats) -> ClassificationReport:
        """Full evaluation report on a labeled set."""
        return ClassificationReport.from_labels(beats.y, self.predict(beats.X))

    def sweep(self, beats: LabeledBeats, alphas: np.ndarray | None = None):
        """NDR/ARR trade-off curve over ``alpha_test`` (Figure 5)."""
        fuzzy = self.fuzzy_values(beats.X)
        return sweep_alpha(fuzzy, beats.y, alphas)

    # ------------------------------------------------------------------
    # Embedded conversion
    # ------------------------------------------------------------------
    def to_embedded(self, **kwargs):
        """Convert to the integer WBSN classifier.

        Delegates to :func:`repro.fixedpoint.convert.convert_pipeline`;
        see that function for the quantization options.  Imported
        lazily to keep ``repro.core`` free of a package cycle.
        """
        from repro.fixedpoint.convert import convert_pipeline

        return convert_pipeline(self, **kwargs)

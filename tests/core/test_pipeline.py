"""Tests for the end-to-end RP classifier pipeline."""

import numpy as np
import pytest

from repro.core.defuzz import UNKNOWN_LABEL
from repro.core.metrics import ClassificationReport
from repro.core.pipeline import RPClassifierPipeline


class TestTrainedPipeline:
    def test_evaluation_report(self, pipeline, datasets):
        report = pipeline.evaluate(datasets.test)
        assert isinstance(report, ClassificationReport)
        assert report.n_beats == len(datasets.test)
        assert 0.0 <= report.ndr <= 1.0
        assert 0.0 <= report.arr <= 1.0

    def test_classifier_actually_separates(self, pipeline, datasets):
        """Core sanity: the trained system must be far above chance."""
        report = pipeline.tuned_for(datasets.test, 0.97).evaluate(datasets.test)
        assert report.arr >= 0.95
        assert report.ndr >= 0.75

    def test_predict_label_domain(self, pipeline, datasets):
        labels = pipeline.predict(datasets.test.X[:100])
        assert set(np.unique(labels)).issubset({UNKNOWN_LABEL, 0, 1, 2})

    def test_project_shape(self, pipeline, datasets):
        u = pipeline.project(datasets.test.X[:7])
        assert u.shape == (7, pipeline.projection.n_coefficients)

    def test_fuzzy_values_shape(self, pipeline, datasets):
        f = pipeline.fuzzy_values(datasets.test.X[:7])
        assert f.shape == (7, 3)

    def test_memo_detects_balanced_inplace_mutation(self, pipeline, datasets):
        """Regression: sum-preserving edits and element swaps must
        invalidate the fuzzy-value memo, not return stale values."""
        X = datasets.test.X.copy()
        pipeline.fuzzy_values(X)  # populate the memo keyed on X
        X[0, 0] += 0.5
        X[0, 1] -= 0.5  # balanced: the plain sum is unchanged
        fresh = pipeline.nfc.fuzzy_values(pipeline.project(X.copy()))
        np.testing.assert_array_equal(pipeline.fuzzy_values(X), fresh)
        X[1, 0], X[1, 1] = float(X[1, 1]), float(X[1, 0])  # element swap
        fresh = pipeline.nfc.fuzzy_values(pipeline.project(X.copy()))
        np.testing.assert_array_equal(pipeline.fuzzy_values(X), fresh)

    def test_picklable_after_fuzzy_memoization(self, pipeline, datasets):
        """Regression: the fuzzy-value memo holds a weakref; pickling
        (e.g. into sharded gateway workers) must drop it, not
        raise TypeError."""
        import pickle

        pipeline.predict(datasets.test.X)  # populate the memo
        assert getattr(pipeline, "_fuzzy_cache", None) is not None
        clone = pickle.loads(pickle.dumps(pipeline))
        assert getattr(clone, "_fuzzy_cache", None) is None
        np.testing.assert_array_equal(
            pipeline.predict(datasets.test.X), clone.predict(datasets.test.X)
        )

    def test_k_mismatch_rejected(self, pipeline):
        from repro.core.nfc import NeuroFuzzyClassifier

        wrong_nfc = NeuroFuzzyClassifier(np.zeros((5, 3)), np.ones((5, 3)))
        with pytest.raises(ValueError):
            RPClassifierPipeline(pipeline.projection, wrong_nfc, 0.0)

    def test_alpha_validated(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.with_alpha(1.5)


class TestVariants:
    def test_with_alpha_changes_only_alpha(self, pipeline):
        other = pipeline.with_alpha(0.5)
        assert other.alpha == 0.5
        assert other.nfc is pipeline.nfc
        assert other.projection is pipeline.projection

    def test_with_shape(self, pipeline, datasets):
        linear = pipeline.with_shape("linear")
        assert linear.nfc.shape == "linear"
        # Predictions can differ but shapes agree.
        assert linear.predict(datasets.test.X[:10]).shape == (10,)

    def test_tuned_for_reaches_target(self, pipeline, datasets):
        tuned = pipeline.tuned_for(datasets.test, 0.97)
        report = tuned.evaluate(datasets.test)
        assert report.arr >= 0.97 - 1e-9

    def test_raising_alpha_trades_ndr_for_arr(self, pipeline, datasets):
        low = pipeline.with_alpha(0.0).evaluate(datasets.test)
        high = pipeline.with_alpha(0.9).evaluate(datasets.test)
        assert high.arr >= low.arr - 1e-12
        assert high.ndr <= low.ndr + 1e-12

    def test_sweep_output(self, pipeline, datasets):
        alphas, ndr, arr = pipeline.sweep(datasets.test, np.linspace(0, 1, 11))
        assert alphas.shape == (11,) and ndr.shape == (11,) and arr.shape == (11,)
        assert np.all(np.diff(ndr) <= 1e-12)
        assert np.all(np.diff(arr) >= -1e-12)


class TestEmbeddedConversion:
    def test_to_embedded_roundtrip(self, pipeline):
        classifier = pipeline.to_embedded()
        assert classifier.n_coefficients == pipeline.projection.n_coefficients
        assert classifier.n_inputs == pipeline.projection.n_inputs

    def test_to_embedded_shape_option(self, pipeline):
        tri = pipeline.to_embedded(shape="triangular")
        assert tri.nfc.shape == "triangular"

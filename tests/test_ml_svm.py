"""Unit tests for the SMO-trained SVM."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ml import OneVsRestClassifier, SMOBinarySVM, SMOClassifier
from repro.ml.base import validate_xy


def _binary_data(seed=0, n=40, dim=4, gap=4.0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(size=(n, dim)) + gap,
            rng.normal(size=(n, dim)) - gap,
        ]
    )
    y = np.concatenate([np.ones(n), -np.ones(n)])
    return X, y


class TestBinarySVM:
    def test_separable(self):
        X, y = _binary_data()
        clf = SMOBinarySVM(C=1.0).fit(X, y)
        assert (clf.predict(X) == y).all()

    def test_margin_signs(self):
        X, y = _binary_data(seed=1)
        clf = SMOBinarySVM(C=1.0).fit(X, y)
        margins = clf.decision_function(X)
        assert (np.sign(margins) == y).mean() >= 0.98

    def test_rbf_kernel_on_xor(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(120, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        clf = SMOBinarySVM(C=10.0, kernel="rbf", gamma=2.0, max_passes=8).fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.9  # linear cannot do this

    def test_labels_must_be_pm1(self):
        X = np.zeros((4, 2))
        with pytest.raises(ConfigError):
            SMOBinarySVM().fit(X, np.array([0, 1, 0, 1]))

    def test_gram_shortcut_matches(self):
        X, y = _binary_data(seed=3)
        direct = SMOBinarySVM(C=1.0, seed=5).fit(X, y)
        gram = X @ X.T
        via_gram = SMOBinarySVM(C=1.0, seed=5).fit(X, y, gram=gram)
        assert np.array_equal(
            direct.decision_function(X), via_gram.decision_function(X)
        )

    def test_bad_gram_shape(self):
        X, y = _binary_data()
        with pytest.raises(ConfigError):
            SMOBinarySVM().fit(X, y, gram=np.eye(3))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            SMOBinarySVM(C=0.0)
        with pytest.raises(ConfigError):
            SMOBinarySVM(kernel="poly")

    def test_deterministic(self):
        X, y = _binary_data(seed=4)
        a = SMOBinarySVM(seed=9).fit(X, y).decision_function(X)
        b = SMOBinarySVM(seed=9).fit(X, y).decision_function(X)
        assert np.array_equal(a, b)

    def test_single_sample(self):
        """One sample has no second multiplier: the pair-free solution,
        as an all-one-label problem gets, with no support vectors."""
        clf = SMOBinarySVM().fit(np.ones((1, 3)), np.array([1.0]))
        assert clf.b_ == 0.0 and clf.alpha_.size == 0
        assert np.array_equal(clf.decision_function(np.ones((2, 3))), [0.0, 0.0])
        assert np.array_equal(clf.predict(np.ones((1, 3))), [1.0])


class TestMulticlassSMO:
    def test_four_classes(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(4, 6)) * 5
        X = np.vstack([c + rng.normal(size=(25, 6)) for c in centers])
        y = np.repeat(np.arange(4), 25)
        clf = SMOClassifier(C=1.0).fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.95

    def test_scores_shape(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 4))
        y = np.repeat(np.arange(3), 10)
        clf = SMOClassifier().fit(X, y)
        assert clf.predict_scores(X[:4]).shape == (4, 3)

    def test_single_class_degenerate(self):
        X = np.random.default_rng(7).normal(size=(5, 3))
        clf = SMOClassifier().fit(X, np.zeros(5))
        assert (clf.predict(X) == 0).all()

    def test_string_labels(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(size=(15, 3)) + 4, rng.normal(size=(15, 3)) - 4])
        y = np.array(["pos"] * 15 + ["neg"] * 15)
        clf = SMOClassifier().fit(X, y)
        assert set(clf.predict(X)) <= {"pos", "neg"}

    def test_clone(self):
        clf = SMOClassifier(C=3.0, kernel="rbf", gamma=0.5)
        clone = clf.clone()
        assert clone.base.C == 3.0 and clone.base.kernel == "rbf"


class FrozenSMOBinarySVM(SMOBinarySVM):
    """The numpy-scalar SMO loop as it was before the Python-float rewrite,
    kept verbatim as the bit-identity oracle for ``SMOBinarySVM.fit``."""

    def clone(self) -> "FrozenSMOBinarySVM":
        return FrozenSMOBinarySVM(
            C=self.C,
            kernel=self.kernel,
            gamma=self.gamma,
            tol=self.tol,
            max_passes=self.max_passes,
            max_iter=self.max_iter,
            seed=self.seed,
        )

    def fit(self, X, y, gram=None):
        X, y = validate_xy(X, y)
        y = np.asarray(y, dtype=float)
        labels = set(np.unique(y).tolist())
        if not labels <= {-1.0, 1.0}:
            raise ConfigError(f"binary SVM labels must be ±1, got {sorted(labels)}")
        n = len(X)
        rng = np.random.default_rng(self.seed)
        K = gram if gram is not None else self._kernel_matrix(X, X)
        if K.shape != (n, n):
            raise ConfigError(f"gram matrix shape {K.shape} does not match n={n}")
        alpha = np.zeros(n)
        b = 0.0
        # error cache: E[i] = f(x_i) - y_i, maintained incrementally so the
        # inner loop never recomputes kernel expansions
        E = -y.copy()

        passes = 0
        iters = 0
        while passes < self.max_passes and iters < self.max_iter:
            changed = 0
            for i in range(n):
                iters += 1
                Ei = E[i]
                if (y[i] * Ei < -self.tol and alpha[i] < self.C) or (
                    y[i] * Ei > self.tol and alpha[i] > 0
                ):
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    Ej = E[j]
                    ai_old, aj_old = alpha[i], alpha[j]
                    if y[i] != y[j]:
                        low = max(0.0, aj_old - ai_old)
                        high = min(self.C, self.C + aj_old - ai_old)
                    else:
                        low = max(0.0, ai_old + aj_old - self.C)
                        high = min(self.C, ai_old + aj_old)
                    if low >= high:
                        continue
                    eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                    if eta >= 0:
                        continue
                    aj = aj_old - y[j] * (Ei - Ej) / eta
                    aj = float(np.clip(aj, low, high))
                    if abs(aj - aj_old) < 1e-5:
                        continue
                    ai = ai_old + y[i] * y[j] * (aj_old - aj)
                    alpha[i], alpha[j] = ai, aj
                    dai = ai - ai_old
                    daj = aj - aj_old
                    b1 = b - Ei - y[i] * dai * K[i, i] - y[j] * daj * K[i, j]
                    b2 = b - Ej - y[i] * dai * K[i, j] - y[j] * daj * K[j, j]
                    if 0 < ai < self.C:
                        b_new = b1
                    elif 0 < aj < self.C:
                        b_new = b2
                    else:
                        b_new = (b1 + b2) / 2.0
                    E += y[i] * dai * K[:, i] + y[j] * daj * K[:, j] + (b_new - b)
                    b = b_new
                    changed += 1
            passes = passes + 1 if changed == 0 else 0

        self.alpha_ = alpha
        self.b_ = b
        # keep only support vectors for prediction
        sv = alpha > 1e-8
        self._X = X[sv]
        self._y = y[sv]
        self.alpha_ = alpha[sv]
        return self


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_bitwise_equal(params, X, y, gram=None):
    """Fit the rewrite and the frozen loop on one problem; every fitted
    number and the decision function must agree byte for byte."""
    new = SMOBinarySVM(**params).fit(X, y, gram=gram)
    ref = FrozenSMOBinarySVM(**params).fit(X, y, gram=gram)
    assert _bits(new.alpha_) == _bits(ref.alpha_)
    assert _bits(new.b_) == _bits(ref.b_)
    assert _bits(new._X) == _bits(ref._X)
    assert _bits(new._y) == _bits(ref._y)
    probe = np.vstack([X, X[:5] + 0.5])
    assert _bits(new.decision_function(probe)) == _bits(
        ref.decision_function(probe)
    )
    return new


def _overlapping_data(seed, n=30, dim=6):
    """Two heavily overlapping classes: many bounded and free multipliers,
    so every branch of the pair update runs."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    y = np.where(X[:, 0] + 0.8 * rng.normal(size=n) > 0, 1.0, -1.0)
    return X, y


class TestFrozenSolverOracle:
    """The Python-float SMO loop is bitwise identical to the numpy-scalar
    loop it replaced, on every kind of problem the loop can meet."""

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernels_and_C(self, kernel, C, seed):
        X, y = _overlapping_data(seed)
        _assert_bitwise_equal(
            {"C": C, "kernel": kernel, "gamma": 0.3, "seed": seed}, X, y
        )

    def test_separable_blobs(self):
        X, y = _binary_data(seed=11, n=25)
        clf = _assert_bitwise_equal({"C": 1.0, "seed": 3}, X, y)
        assert clf.alpha_.size > 0

    def test_two_samples(self):
        """n = 2: the draw range is empty, so the stream is never read."""
        X = np.array([[1.0, 0.0], [-1.0, 0.5]])
        clf = _assert_bitwise_equal({"C": 1.0}, X, np.array([1.0, -1.0]))
        assert clf.alpha_.size == 2

    def test_all_one_label(self):
        X, _ = _overlapping_data(4, n=12)
        for label in (1.0, -1.0):
            clf = _assert_bitwise_equal({"C": 1.0}, X, np.full(12, label))
            assert clf.alpha_.size == 0 and clf.b_ == 0.0

    def test_duplicate_rows(self):
        """Identical rows make eta = 0 for their pairs."""
        X, y = _overlapping_data(5, n=10)
        X = np.vstack([X, X, X[:4]])
        y = np.concatenate([y, y, y[:4]])
        _assert_bitwise_equal({"C": 1.0, "seed": 7}, X, y)

    def test_nonsymmetric_gram(self):
        """A caller's gram need not be symmetric: this pins which of
        K[i, j] and K[j, i] (rows versus columns) each step reads."""
        X, y = _overlapping_data(6, n=24)
        rng = np.random.default_rng(6)
        gram = X @ X.T + 0.3 * rng.normal(size=(24, 24))
        assert not np.array_equal(gram, gram.T)
        for C in (0.1, 1.0, 10.0):
            _assert_bitwise_equal({"C": C, "seed": 2}, X, y, gram=gram)

    def test_nan_kernel_entry(self):
        """A NaN in the kernel reaches the clip: np.clip passes NaN
        through, and so must the rewrite."""
        X, y = _overlapping_data(6, n=12)
        gram = X @ X.T
        gram[3, 5] = np.nan
        for C in (0.1, 1.0):
            clf = _assert_bitwise_equal({"C": C}, X, y, gram=gram)
            assert np.isnan(clf.b_)

    def test_stops_at_max_iter(self):
        X, y = _overlapping_data(7, n=40)
        for max_iter in (1, 17, 60):
            _assert_bitwise_equal(
                {"C": 10.0, "max_iter": max_iter, "max_passes": 50}, X, y
            )

    def test_long_run_spans_draw_batches(self):
        """Enough KKT violators to need several batches of second indices."""
        X, y = _overlapping_data(8, n=120, dim=10)
        _assert_bitwise_equal(
            {"C": 10.0, "kernel": "rbf", "gamma": 0.5, "max_passes": 10}, X, y
        )

    def test_standardized_wide_features(self):
        """The refined phase's shape: few standardized rows, wide features."""
        rng = np.random.default_rng(9)
        X = rng.normal(size=(33, 400)) * rng.uniform(0.1, 3.0, size=400)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = np.where(np.arange(33) % 4 == 0, 1.0, -1.0)
        _assert_bitwise_equal({"C": 1.0}, X, y)

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_multiclass_matches_reference_one_vs_rest(self, kernel):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(size=(12, 8)) + shift for shift in (0, 1, 2, 3)])
        y = np.repeat(np.array(["a", "b", "c", "d"]), 12)
        params = {"C": 1.0, "kernel": kernel, "gamma": 0.2, "seed": 4}
        new = SMOClassifier(**params).fit(X, y)
        ref = OneVsRestClassifier(base=FrozenSMOBinarySVM(**params)).fit(X, y)
        probe = rng.normal(size=(9, 8)) + 1.5
        assert _bits(new.predict_scores(probe)) == _bits(ref.predict_scores(probe))
        assert list(new.classes_) == list(ref.classes_)

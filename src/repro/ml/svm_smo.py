"""Support vector machine trained by Sequential Minimal Optimization.

The paper's strongest refined-DA classifier is "SMO" — Platt's SMO-trained
SVM (as shipped by Weka and used in [32]).  :class:`SMOBinarySVM` is a
simplified-SMO binary soft-margin SVM with linear or RBF kernel;
:class:`SMOClassifier` lifts it to multiclass via one-vs-rest.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.ml.base import check_fitted, validate_xy
from repro.ml.multiclass import OneVsRestClassifier


def _linear_kernel(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B.T


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


#: Second-multiplier indices drawn per ``Generator.integers`` call.
_DRAW_BATCH = 256


def _kernel_views(K: np.ndarray) -> tuple:
    """``(rows, cols)`` of a kernel matrix for :meth:`SMOBinarySVM._smo`:
    ``rows[i][j]`` is ``K[i, j]`` as a Python float, and ``cols[i]`` is
    ``K[:, i]`` as a contiguous array (a row of a transposed copy)."""
    K = np.asarray(K, dtype=float)
    return K.tolist(), np.ascontiguousarray(K.T)


class SMOBinarySVM:
    """Binary soft-margin SVM trained with simplified SMO.

    Labels must be +1 / -1.  Training follows the simplified SMO loop:
    sweep examples, pick KKT violators, pair them with a random second
    multiplier, and solve the two-variable subproblem analytically.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "linear",
        gamma: float = 0.1,
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iter: int = 10_000,
        seed: int = 0,
    ) -> None:
        if C <= 0:
            raise ConfigError(f"C must be positive, got {C}")
        if kernel not in ("linear", "rbf"):
            raise ConfigError(f"unknown kernel {kernel!r}")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self.seed = seed
        self.alpha_: "np.ndarray | None" = None
        self.b_: float = 0.0
        self._X: "np.ndarray | None" = None
        self._y: "np.ndarray | None" = None

    def clone(self) -> "SMOBinarySVM":
        return SMOBinarySVM(
            C=self.C,
            kernel=self.kernel,
            gamma=self.gamma,
            tol=self.tol,
            max_passes=self.max_passes,
            max_iter=self.max_iter,
            seed=self.seed,
        )

    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return _linear_kernel(A, B)
        return _rbf_kernel(A, B, self.gamma)

    def fit(
        self, X: np.ndarray, y: np.ndarray, gram: "np.ndarray | None" = None
    ) -> "SMOBinarySVM":
        """Train; ``gram`` lets callers share one precomputed kernel matrix
        across several binary problems (the one-vs-rest path does this)."""
        X, y = validate_xy(X, y)
        y = np.asarray(y, dtype=float)
        labels = set(np.unique(y).tolist())
        if not labels <= {-1.0, 1.0}:
            raise ConfigError(f"binary SVM labels must be ±1, got {sorted(labels)}")
        n = len(X)
        K = gram if gram is not None else self._kernel_matrix(X, X)
        if K.shape != (n, n):
            raise ConfigError(f"gram matrix shape {K.shape} does not match n={n}")
        return self._fit_kernel(X, y, _kernel_views(K))

    def _fit_kernel(
        self, X: np.ndarray, y: np.ndarray, views: tuple
    ) -> "SMOBinarySVM":
        """Run SMO on validated ``X``/``y`` with the :func:`_kernel_views`
        of their kernel matrix, then keep only the support vectors."""
        alpha, self.b_ = self._smo(views, y)
        sv = alpha > 1e-8
        self._X = X[sv]
        self._y = y[sv]
        self.alpha_ = alpha[sv]
        return self

    def _smo(self, views: tuple, y: np.ndarray) -> "tuple[np.ndarray, float]":
        """The simplified-SMO loop; returns ``(alpha, b)``.

        Every scalar is a Python float: ``y``, ``alpha`` and the error
        cache are read from lists and ``K[i][j]`` from the kernel's row
        lists, and the builtin ``min``/``max`` and ``np.clip`` are
        conditional expressions with the same tie and NaN rules.  The IEEE
        operations and their order must stay those of the numpy-scalar
        loop kept as the oracle in ``tests/test_ml_svm.py``: for a float64
        kernel the fit is bitwise the same.
        """
        rows, cols = views
        n = len(rows)
        C = float(self.C)
        tol = self.tol
        yl = y.tolist()
        alpha = [0.0] * n
        b = 0.0
        if n < 2:
            # no second multiplier to pair with: the pair-free solution
            return np.array(alpha), b
        diag = [rows[k][k] for k in range(n)]
        # error cache: E[i] = f(x_i) - y_i, maintained incrementally so the
        # inner loop never recomputes kernel expansions; ``El`` mirrors it
        E = -y
        El = E.tolist()
        # second indices come in batches from the same stream: numpy's
        # bounded draws of one size-B call equal B scalar calls
        rng = np.random.default_rng(self.seed)
        draws: list = []
        d = 0

        passes = 0
        iters = 0
        while passes < self.max_passes and iters < self.max_iter:
            changed = 0
            for i in range(n):
                iters += 1
                Ei = El[i]
                yi = yl[i]
                ai_old = alpha[i]
                if (yi * Ei < -tol and ai_old < C) or (
                    yi * Ei > tol and ai_old > 0
                ):
                    if d == len(draws):
                        draws = rng.integers(0, n - 1, size=_DRAW_BATCH).tolist()
                        d = 0
                    j = draws[d]
                    d += 1
                    if j >= i:
                        j += 1
                    Ej = El[j]
                    yj = yl[j]
                    aj_old = alpha[j]
                    if yi != yj:
                        low = aj_old - ai_old
                        high = C + aj_old - ai_old
                    else:
                        low = ai_old + aj_old - C
                        high = ai_old + aj_old
                    low = low if low > 0.0 else 0.0  # max(0.0, low)
                    high = high if high < C else C  # min(C, high)
                    if low >= high:
                        continue
                    Kij = rows[i][j]
                    Kii = diag[i]
                    Kjj = diag[j]
                    eta = 2.0 * Kij - Kii - Kjj
                    if eta >= 0:
                        continue
                    aj = aj_old - yj * (Ei - Ej) / eta
                    # np.clip(aj, low, high): keeps aj on ties, passes NaN
                    aj = low if aj < low else aj
                    aj = high if aj > high else aj
                    if abs(aj - aj_old) < 1e-5:
                        continue
                    ai = ai_old + yi * yj * (aj_old - aj)
                    alpha[i] = ai
                    alpha[j] = aj
                    dai = ai - ai_old
                    daj = aj - aj_old
                    b1 = b - Ei - yi * dai * Kii - yj * daj * Kij
                    b2 = b - Ej - yi * dai * Kij - yj * daj * Kjj
                    if 0 < ai < C:
                        b_new = b1
                    elif 0 < aj < C:
                        b_new = b2
                    else:
                        b_new = (b1 + b2) / 2.0
                    E += yi * dai * cols[i] + yj * daj * cols[j] + (b_new - b)
                    El = E.tolist()
                    b = b_new
                    changed += 1
            passes = passes + 1 if changed == 0 else 0
        return np.array(alpha), b

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "alpha_")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if len(self._X) == 0:
            return np.full(len(X), self.b_)
        K = self._kernel_matrix(X, self._X)
        return K @ (self.alpha_ * self._y) + self.b_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0.0, 1.0, -1.0)


class SMOClassifier(OneVsRestClassifier):
    """Multiclass SMO-SVM (one-vs-rest over :class:`SMOBinarySVM`).

    The kernel matrix is computed once and shared across all one-vs-rest
    binary problems — with stylometric feature widths (M ≈ 2100) the Gram
    computation dominates training time otherwise.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "linear",
        gamma: float = 0.1,
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iter: int = 10_000,
        seed: int = 0,
    ) -> None:
        super().__init__(
            base=SMOBinarySVM(
                C=C,
                kernel=kernel,
                gamma=gamma,
                tol=tol,
                max_passes=max_passes,
                max_iter=max_iter,
                seed=seed,
            )
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SMOClassifier":
        X, y = validate_xy(X, y)
        self.classes_ = np.unique(y)
        self._estimators = []
        if len(self.classes_) < 2:
            return self
        views = _kernel_views(self.base._kernel_matrix(X, X))
        for cls in self.classes_:
            target = np.where(y == cls, 1.0, -1.0)
            est = self.base.clone()
            est._fit_kernel(X, target, views)
            self._estimators.append(est)
        return self

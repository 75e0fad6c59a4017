import itertools
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import corpus, features, learn, textprep
from hopedetect.corpus import Label
from hopedetect.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyPredictions,
    HopedetectError,
    MalformedFile,
    RowCountMismatch,
    SingleClass,
)
from conftest import FIXTURES, csr_from_dense


def _separable_set():
    # (0,1)->A, (1,0)->B, 10 copies each; separable by x1-x0 sign.
    X = np.array([[0.0, 1.0]] * 10 + [[1.0, 0.0]] * 10)
    y = ["A"] * 10 + ["B"] * 10
    return X, y


def _accuracy(model, X, y):
    pred = [learn.predict(model, x)[0] for x in X]
    return sum(p == g for p, g in zip(pred, y)) / len(y)


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle (independent of the analytic path)


def _numeric_grad(f, params, eps=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up.flat[i] += eps
        down.flat[i] -= eps
        grad.flat[i] = (f(up) - f(down)) / (2 * eps)
    return grad


class TestLogReg:
    def test_separable_perfect_accuracy(self):
        X, y = _separable_set()
        model = learn.train_logreg(X, y, lr=0.1, epochs=500)
        assert _accuracy(model, X, y) == 1.0

    def test_zero_features_majority_class(self):
        X = np.zeros((10, 3))
        y = ["A"] * 3 + ["B"] * 7
        model = learn.train_logreg(X, y, epochs=200)
        for x in X:
            assert learn.predict(model, x)[0] == "B"

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 8))
        y_idx = rng.integers(0, 3, size=5)
        W = rng.normal(size=(3, 8)) * 0.3
        b = rng.normal(size=3) * 0.3
        l2 = 1e-3
        for X in (X, csr_from_dense(X)):
            gW, gb = learn.logreg_gradient(W, b, X, y_idx, l2)
            nW = _numeric_grad(
                lambda p: learn.logreg_objective(p, b, X, y_idx, l2), W
            )
            nb = _numeric_grad(
                lambda p: learn.logreg_objective(W, p, X, y_idx, l2), b
            )
            assert np.abs(gW - nW).max() / max(np.abs(nW).max(), 1e-12) <= 1e-4
            assert np.abs(gb - nb).max() / max(np.abs(nb).max(), 1e-12) <= 1e-4

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        y = ["A" if v > 0 else "B" for v in X[:, 0] + 0.3 * rng.normal(size=30)]
        y_idx = np.array([0 if v == "A" else 1 for v in y])
        W = np.zeros((2, 4))
        b = np.zeros(2)
        losses = []
        for _ in range(100):
            losses.append(learn.logreg_objective(W, b, X, y_idx, 1e-4))
            gW, gb = learn.logreg_gradient(W, b, X, y_idx, 1e-4)
            W -= 0.01 * gW
            b -= 0.01 * gb
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            learn.train_logreg(np.ones((4, 2)), ["A"] * 4)


class TestLinearSvm:
    def test_separable_perfect_accuracy(self):
        X, y = _separable_set()
        model = learn.train_linear_svm(X, y, lr=0.01, epochs=500)
        assert _accuracy(model, X, y) == 1.0

    def test_c_zero_weights_shrink(self):
        X, y = _separable_set()
        model = learn.train_linear_svm(X, y, lr=0.05, epochs=800, C=0.0)
        assert np.abs(model.weights).max() < 1e-6
        # pure tie: prediction falls to first class in model order
        assert learn.predict(model, X[0])[0] == model.classes[0]

    def test_ovr_three_classes_shape(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 5))
        y = ["A", "B", "C"] * 4
        model = learn.train_linear_svm(X, y, epochs=10)
        assert model.weights.shape == (3, 5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 8))
        y_idx = rng.integers(0, 3, size=5)
        signs = np.where(np.arange(3)[:, None] == y_idx[None, :], 1.0, -1.0)
        # random point away from hinge kinks so the subgradient is the gradient
        W = rng.normal(size=(3, 8))
        b = rng.normal(size=3)
        C = 1.3
        margins = signs.T * (X @ W.T + b)
        assert np.abs(margins - 1.0).min() > 1e-4  # not at a kink
        for X in (X, csr_from_dense(X)):
            gW, gb = learn.svm_gradient(W, b, X, signs, C)
            nW = _numeric_grad(lambda p: learn.svm_objective(p, b, X, signs, C), W)
            nb = _numeric_grad(lambda p: learn.svm_objective(W, p, X, signs, C), b)
            assert np.abs(gW - nW).max() / max(np.abs(nW).max(), 1e-12) <= 1e-4
            assert np.abs(gb - nb).max() / max(np.abs(nb).max(), 1e-12) <= 1e-4

    def test_margin_shift_invariance(self):
        X, y = _separable_set()
        model = learn.train_linear_svm(X, y, epochs=100)
        for x in X[:3]:
            label, scores = learn.predict(model, x)
            shifted = {c: s + 5.0 for c, s in scores.items()}
            assert max(shifted, key=lambda c: (shifted[c], -model.classes.index(c))) \
                == label


class TestLinearDescent:
    """The loop both linear trainers share."""

    @staticmethod
    def _plain_descent(gradient, shape, lr, epochs):
        # The reference: one plain loop, written out for each trainer.
        W, b = np.zeros(shape), np.zeros(shape[0])
        for _ in range(epochs):
            gW, gb = gradient(W, b)
            W -= lr * gW
            b -= lr * gb
        return W, b

    @pytest.mark.parametrize("kind", ["logreg", "linear_svm"])
    def test_weights_equal_plain_descent(self, kind):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        y = ["A", "B", "C"] * 10
        y_idx = np.array([0, 1, 2] * 10)
        if kind == "logreg":
            model = learn.train_logreg(X, y, lr=0.3, epochs=40, l2=0.01)
            W, b = self._plain_descent(
                lambda W, b: learn.logreg_gradient(W, b, X, y_idx, 0.01), (3, 4), 0.3, 40)
        else:
            model = learn.train_linear_svm(X, y, lr=0.2, epochs=40, C=3.0)
            signs = np.where(np.arange(3)[:, None] == y_idx[None, :], 1.0, -1.0)
            W, b = self._plain_descent(
                lambda W, b: learn.svm_gradient(W, b, X, signs, 3.0), (3, 4), 0.2, 40)
        assert np.array_equal(model.weights, W) and np.array_equal(model.bias, b)

    @pytest.mark.parametrize("train,params", [
        (learn.train_logreg, {"lr": 1000.0, "l2": 1.0, "epochs": 500}),
        (learn.train_linear_svm, {"lr": 20.0, "C": 1000.0, "epochs": 500}),
    ])
    def test_divergence_raises(self, train, params):
        X, y = _separable_set()
        kind = train.__name__.removeprefix("train_")
        with pytest.raises(ConfigError, match=f"{kind} training diverged with "
                                              f"lr={params['lr']!r}"):
            train(X, y, **params)


# ---------------------------------------------------------------------------
# Row-major gradient oracles: the gradients as computed before class-major
# scores, on (n, classes) arrays. ``X @ W.T`` is made C-ordered, as it was.


def _logreg_gradient_rows(W, b, X, y_idx, l2):
    z = np.ascontiguousarray(X @ W.T) + b
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.arange(len(y_idx)), y_idx] = 1.0
    delta = (p - onehot) / len(y_idx)
    return delta.T @ X + l2 * W, delta.sum(axis=0)


def _svm_gradient_rows(W, b, X, signs, C):
    margins = np.ascontiguousarray(X @ W.T) + b
    active = (signs.T * margins < 1.0).astype(float)
    coef = -(signs.T * active) / X.shape[0]
    return C * (coef.T @ X) + W, C * coef.sum(axis=0)


def _same_bits(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


class TestClassMajorGradients:
    """The class-major gradients against the row-major oracles, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 9), st.sampled_from([2, 3]),
           st.integers(0, 2**32 - 1))
    def test_bit_identical_to_row_major(self, n, dim, n_classes, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, dim)) * (rng.random((n, dim)) < 0.5)
        W = rng.normal(scale=3.0, size=(n_classes, dim))
        b = rng.normal(size=n_classes)
        y_idx = rng.integers(0, n_classes, size=n)
        signs = np.where(np.arange(n_classes)[:, None] == y_idx[None, :], 1.0, -1.0)
        for X in (A, csr_from_dense(A)):
            assert _same_bits(learn.logreg_gradient(W, b, X, y_idx, 0.01),
                              _logreg_gradient_rows(W, b, X, y_idx, 0.01))
            assert _same_bits(learn.svm_gradient(W, b, X, signs, 2.0),
                              _svm_gradient_rows(W, b, X, signs, 2.0))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("kind", ["logreg", "linear_svm"])
    def test_training_bit_identical_to_row_major(self, kind, n_classes, dense):
        # The en fixture's TF-IDF rows, through whole trainings.
        X, y, _ = _golden_features()
        if dense:
            X = np.asarray(X)
        if n_classes == 3:
            y = [("A", "B", "C")[i % 3] for i in range(len(y))]
        y_idx, classes = learn._encode_labels(y)
        signs = np.where(np.arange(n_classes)[:, None] == y_idx[None, :], 1.0, -1.0)
        if kind == "logreg":
            model = learn.train_logreg(X, y, lr=1.0, epochs=30)
            oracle = lambda W, b: _logreg_gradient_rows(W, b, X, y_idx, 1e-4)
        else:
            model = learn.train_linear_svm(X, y, lr=0.5, epochs=30, C=10.0)
            oracle = lambda W, b: _svm_gradient_rows(W, b, X, signs, 10.0)
        want = learn._descend(kind, X, classes, 0, model.hyperparams, oracle)
        assert _same_bits((model.weights, model.bias), (want.weights, want.bias))


# ---------------------------------------------------------------------------
# Brute-force reference decision tree (written from the split definitions)


def _ref_gini(labels):
    n = len(labels)
    return 1.0 - sum((c / n) ** 2 for c in Counter(labels).values())


def _ref_tree(X, y, depth, max_depth):
    majority = sorted(Counter(y).items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    if depth >= max_depth or len(set(y)) == 1:
        return ("leaf", majority)
    best = None
    for f in range(X.shape[1]):
        vals = sorted(set(X[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            left = [i for i in range(len(y)) if X[i, f] < thr]
            right = [i for i in range(len(y)) if X[i, f] >= thr]
            g = (
                len(left) * _ref_gini([y[i] for i in left])
                + len(right) * _ref_gini([y[i] for i in right])
            ) / len(y)
            if best is None or g < best[0] - 1e-12:
                best = (g, f, thr, left, right)
    if best is None:
        return ("leaf", majority)
    _, f, thr, left, right = best
    return (
        "node", f, thr,
        _ref_tree(X[left], [y[i] for i in left], depth + 1, max_depth),
        _ref_tree(X[right], [y[i] for i in right], depth + 1, max_depth),
    )


def _ref_predict(tree, x):
    while tree[0] == "node":
        _, f, thr, l, r = tree
        tree = l if x[f] < thr else r
    return tree[1]


class TestRandomForest:
    def test_dense_transpose_owns_contiguous_arrays(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 5))
        X[np.abs(X) < 0.7] = 0.0
        XT = learn._transpose(X)
        for a in (XT.data, XT.indices):
            assert a.base is None and a.flags.c_contiguous
        sparse = learn._transpose(csr_from_dense(X))
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(XT, name), getattr(sparse, name))

    def test_single_label_all_leaves(self):
        X = np.arange(12.0).reshape(6, 2)
        model = learn.train_random_forest(X, ["A"] * 6, n_trees=3, seed=0)
        assert all(t.feature == [-1] for t in model.trees)  # each root a leaf
        assert learn.predict(model, X[0])[0] == "A"

    def test_matches_reference_tree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        y = ["A" if x[0] + x[1] > 0 else "B" for x in X]
        model = learn.train_random_forest(
            X, y, n_trees=1, max_depth=6, feature_frac=1.0, seed=0, bootstrap=False
        )
        ref = _ref_tree(X, y, 0, 6)
        for x in X:
            assert learn.predict(model, x)[0] == _ref_predict(ref, x)

    def test_prediction_is_mode_of_trees(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = ["A" if x[0] > 0 else "B" for x in X]
        model = learn.train_random_forest(X, y, n_trees=9, max_depth=4, seed=1)
        classes = model.classes
        for x in rng.normal(size=(100, 4)):
            votes = [learn.predict(replace(model, trees=[t]), x)[0] for t in model.trees]
            label, scores = learn.predict(model, x)
            mode_count = Counter(votes).most_common(1)[0][1]
            assert Counter(votes)[label] == mode_count
            assert sum(scores.values()) == pytest.approx(1.0)

    def test_forced_identical_trees_equal_one_tree(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 3))
        y = ["A" if x[2] > 0 else "B" for x in X]
        one = learn.train_random_forest(X, y, n_trees=1, feature_frac=1.0,
                                        seed=3, bootstrap=False)
        many = learn.train_random_forest(X, y, n_trees=5, feature_frac=1.0,
                                         seed=3, bootstrap=False)
        for x in rng.normal(size=(50, 3)):
            assert learn.predict(one, x)[0] == learn.predict(many, x)[0]


# ---------------------------------------------------------------------------
# Oracle trees: the node objects and their walk, as trees were stored and
# walked before the flat pre-order lists.


@dataclass
class _Node:
    """A tree node, as trees were stored before the flat pre-order lists."""

    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    label: int = -1  # class index at leaves


def _node_walk(node: _Node, x) -> int:
    """The leaf label of dense row x, walking the node objects."""
    while node.feature >= 0:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.label


def _flatten(node: _Node, tree: learn.DecisionTree) -> None:
    """Append the subtree at ``node`` to ``tree`` in pre-order."""
    i = tree.add(node.feature, node.threshold, node.label)
    if node.feature >= 0:
        _flatten(node.left, tree)
        tree.right[i] = len(tree.feature)
        _flatten(node.right, tree)


# ---------------------------------------------------------------------------
# Oracle: the exhaustive threshold scan over a dense copy that the sorted
# split search replaced, kept as it was apart from names and input checks;
# it builds node objects, flattened for save_model.


def _oracle_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _oracle_grow_tree(X, y_idx, n_classes, indices, depth, max_depth, n_feats, rng):
    counts = np.bincount(y_idx[indices], minlength=n_classes)
    majority = int(counts.argmax())
    if depth >= max_depth or counts.max() == counts.sum():
        return _Node(label=majority)

    dim = X.shape[1]
    feats = rng.permutation(dim)[:n_feats] if n_feats < dim else np.arange(dim)
    best = None  # (impurity, feature, threshold)
    for f in sorted(feats):
        values = np.unique(X[indices, f])
        if len(values) < 2:
            continue
        for threshold in (values[:-1] + values[1:]) / 2.0:
            mask = X[indices, f] < threshold
            left, right = indices[mask], indices[~mask]
            lc = np.bincount(y_idx[left], minlength=n_classes)
            rc = np.bincount(y_idx[right], minlength=n_classes)
            impurity = (len(left) * _oracle_gini(lc)
                        + len(right) * _oracle_gini(rc)) / len(indices)
            if best is None or impurity < best[0] - 1e-12:
                best = (impurity, f, float(threshold))
    if best is None:
        return _Node(label=majority)
    _, f, threshold = best
    mask = X[indices, f] < threshold
    return _Node(
        feature=int(f),
        threshold=threshold,
        left=_oracle_grow_tree(X, y_idx, n_classes, indices[mask], depth + 1,
                               max_depth, n_feats, rng),
        right=_oracle_grow_tree(X, y_idx, n_classes, indices[~mask], depth + 1,
                                max_depth, n_feats, rng),
    )


def _oracle_random_forest(X, y, n_trees=100, max_depth=16, feature_frac=None,
                          seed=0, bootstrap=True):
    Xm = np.asarray(X, dtype=float)
    y_idx, class_names = learn._encode_labels(y)
    dim = Xm.shape[1]
    if feature_frac is None:
        n_feats = max(1, int(np.ceil(np.sqrt(dim))))
        feature_frac = n_feats / dim
    else:
        n_feats = max(1, int(np.ceil(feature_frac * dim)))
    rng = np.random.default_rng(seed)
    n = Xm.shape[0]
    roots, trees = [], []
    for _ in range(n_trees):
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        roots.append(_oracle_grow_tree(Xm, y_idx, len(class_names), np.asarray(sample),
                                       0, max_depth, n_feats, rng))
        trees.append(learn.DecisionTree(max_depth))
        _flatten(roots[-1], trees[-1])
    model = learn.TrainedModel(
        kind="random_forest", classes=class_names, dim=dim, train_seed=seed,
        hyperparams={"n_trees": n_trees, "max_depth": max_depth,
                     "feature_frac": feature_frac},
        trees=trees,
    )
    return model, roots


def _model_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        learn.save_model(model, path)
        return path.read_bytes()


# Ties, negatives, zeros and 1.0 next to the double just above it, whose
# midpoint rounds onto 1.0 (likewise -1.0 and the double just above it).
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, -2.5, -1.0, np.nextafter(-1.0, 0.0), 0.5, 1.0,
                     np.nextafter(1.0, 2.0), 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


class TestSplitSearchOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 14), dim=st.integers(1, 5),
           n_classes=st.integers(1, 3), max_depth=st.integers(0, 6),
           feature_frac=st.sampled_from([None, 1.0, 0.5]),
           bootstrap=st.booleans(), n_trees=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_trees_byte_identical_to_exhaustive_scan(
            self, data, n, dim, n_classes, max_depth, feature_frac, bootstrap,
            n_trees, seed):
        X = np.array(data.draw(st.lists(st.lists(_VALUES, min_size=dim,
                                                 max_size=dim),
                                        min_size=n, max_size=n)))
        # Every example has an all-zero column and an empty row.
        X = np.hstack([X, np.zeros((n, 1))])
        X[data.draw(st.integers(0, n - 1))] = 0.0
        y = data.draw(st.lists(st.sampled_from("ABC"[:n_classes]),
                               min_size=n, max_size=n))
        params = dict(n_trees=n_trees, max_depth=max_depth,
                      feature_frac=feature_frac, seed=seed, bootstrap=bootstrap)
        expected = _model_bytes(_oracle_random_forest(X, y, **params)[0])
        assert _model_bytes(learn.train_random_forest(X, y, **params)) == expected
        assert _model_bytes(
            learn.train_random_forest(csr_from_dense(X), y, **params)) == expected

    def test_sparse_input_is_never_densified(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 6))
        X[np.abs(X) < 0.7] = 0.0
        y = ["A" if x[0] + x[3] > 0 else "B" for x in X]
        csr = csr_from_dense(X)

        def densify(*args, **kwargs):
            raise AssertionError("CsrMatrix densified")

        monkeypatch.setattr(features.CsrMatrix, "__array__", densify)
        model = learn.train_random_forest(csr, y, n_trees=5, max_depth=4, seed=1)
        assert [learn.predict(model, csr[i])[0] for i in range(len(y))] == \
            [learn.predict(model, x)[0] for x in X]
        assert sum(learn.predict(model, x)[0] == t for x, t in zip(X, y)) > 20


def _round_trip(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        learn.save_model(model, path)
        return learn.load_model(path)


class TestFlatTreeOracle:
    """The flat pre-order trees against the node objects they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 14), dim=st.integers(1, 5),
           n_classes=st.integers(1, 3), max_depth=st.integers(0, 6),
           n_trees=st.integers(1, 3), sparse=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_flat_walk_matches_node_walk(self, data, n, dim, n_classes, max_depth,
                                         n_trees, sparse, seed):
        X = np.array(data.draw(st.lists(st.lists(_VALUES, min_size=dim,
                                                 max_size=dim),
                                        min_size=n, max_size=n)))
        X = np.hstack([X, np.zeros((n, 1))])
        y = data.draw(st.lists(st.sampled_from("ABC"[:n_classes]),
                               min_size=n, max_size=n))
        params = dict(n_trees=n_trees, max_depth=max_depth, seed=seed)
        model = learn.train_random_forest(csr_from_dense(X) if sparse else X, y,
                                          **params)
        oracle, roots = _oracle_random_forest(X, y, **params)
        assert model.trees == oracle.trees
        assert _round_trip(model).trees == model.trees

        # Rows of the training values, zeros and the trees' own thresholds,
        # each in the column it splits.
        at: dict[int, list[float]] = {}
        for tree in model.trees:
            for f, threshold in zip(tree.feature, tree.threshold):
                if f >= 0:
                    at.setdefault(f, []).append(threshold)
        cells = [st.one_of(_VALUES, st.sampled_from(at[c])) if c in at else _VALUES
                 for c in range(dim + 1)]
        rows = np.array(data.draw(st.lists(st.tuples(*cells), min_size=1, max_size=8)))
        csr = csr_from_dense(rows)
        for i, x in enumerate(rows):
            for tree, root in zip(model.trees, roots):
                one = replace(model, trees=[tree])
                want = model.classes[_node_walk(root, x)]
                assert learn.predict(one, x)[0] == want
                assert learn.predict(one, csr[i:i + 1])[0] == want
            # The vote as it was counted over the node walks.
            votes = np.bincount([_node_walk(root, x) for root in roots],
                                minlength=len(model.classes))
            raw = votes / votes.sum()
            want = (model.classes[int(np.argmax(raw))],
                    {c: float(v) for c, v in zip(model.classes, raw)})
            assert learn.predict(model, x) == want
            assert learn.predict(model, csr[i:i + 1]) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["logreg", "linear_svm"]),
           n_classes=st.integers(2, 3), dim=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    def test_linear_scores_from_stored_entries(self, data, kind, n_classes, dim, seed):
        rng = np.random.default_rng(seed)
        W, b = rng.normal(size=(n_classes, dim)), rng.normal(size=n_classes)
        model = learn.TrainedModel(kind=kind, classes=list("ABC"[:n_classes]), dim=dim,
                                   train_seed=0, weights=W, bias=b)
        rows = np.array(data.draw(st.lists(st.lists(_VALUES, min_size=dim, max_size=dim),
                                           min_size=1, max_size=8)))
        csr = csr_from_dense(rows)
        for i, x in enumerate(rows):
            label, scores = learn.predict(model, x)
            csr_label, csr_scores = learn.predict(model, csr[i:i + 1])
            assert csr_label == label and list(csr_scores) == model.classes
            np.testing.assert_allclose(list(csr_scores.values()),
                                       list(scores.values()), rtol=0, atol=1e-12)
            # The dense product over the whole row, as predict took it before:
            # only the summation order of the dot products differs.
            z = W @ x + b
            if kind == "logreg":
                z = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
            np.testing.assert_allclose(list(scores.values()), z, rtol=0, atol=1e-12)


class TestPredict:
    def test_zero_logreg_tie_break(self):
        model = learn.TrainedModel(
            kind="logreg", classes=["A", "B"], dim=2, train_seed=0,
            weights=np.zeros((2, 2)), bias=np.zeros(2),
        )
        label, scores = learn.predict(model, np.array([1.0, 2.0]))
        assert label == "A"
        assert scores == {"A": 0.5, "B": 0.5}

    def test_dim_mismatch(self):
        model = learn.TrainedModel(
            kind="logreg", classes=["A", "B"], dim=3, train_seed=0,
            weights=np.zeros((2, 3)), bias=np.zeros(2),
        )
        with pytest.raises(DimensionMismatch):
            learn.predict(model, np.zeros(2))

    def test_forest_vote_tie_goes_to_first_class(self):
        trees = [learn.DecisionTree(1, feature=[-1], threshold=[0.0], right=[-1],
                                    label=[label]) for label in (1, 0, 2, 1, 0)]
        model = learn.TrainedModel(kind="random_forest", classes=["A", "B", "C"],
                                   dim=1, train_seed=0, trees=trees)
        assert learn.predict(model, np.zeros(1)) == ("A", {"A": 0.4, "B": 0.4, "C": 0.2})

    def test_one_row_forms_agree_and_more_rows_are_refused(self):
        model = learn.TrainedModel(
            kind="linear_svm", classes=["A", "B"], dim=3, train_seed=0,
            weights=np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]]), bias=np.zeros(2),
        )
        X = np.array([[0.5, 0.0, 2.0], [1.0, 1.0, 0.0]])
        csr = csr_from_dense(X)
        want = ("B", {"A": -1.5, "B": 0.0})
        for row in (X[0], X[0:1], csr[0], csr[0:1], csr[[0]]):
            assert learn.predict(model, row) == want
        for rows in (X, csr, csr[0:0]):
            with pytest.raises(DimensionMismatch):
                learn.predict(model, rows)


class TestMajorityVote:
    def test_six_of_eleven(self):
        votes = [Label.HOPE] * 6 + [Label.NOT_HOPE] * 5
        assert learn.majority_vote(votes) == "Hope"

    def test_singleton(self):
        assert learn.majority_vote([Label.HOPE]) == "Hope"

    def test_tie_majority_class_prior(self):
        votes = ["Hope", "Hope", "NotHope", "NotHope"]
        assert learn.majority_vote(votes, "MajorityClassPrior") == "NotHope"

    def test_tie_class_order(self):
        votes = ["Hope", "Hope", "NotHope", "NotHope"]
        assert learn.majority_vote(votes, "ClassOrder") == "Hope"

    def test_empty(self):
        with pytest.raises(EmptyPredictions):
            learn.majority_vote([])

    def test_exhaustive_small_multisets(self):
        labels = ["Hope", "NotHope", "NotLanguage"]
        for k in range(1, 6):
            for votes in itertools.product(labels, repeat=k):
                got = learn.majority_vote(list(votes), "ClassOrder")
                counts = Counter(votes)
                top = max(counts.values())
                tied = {v for v, c in counts.items() if c == top}
                assert got in tied
                assert got == min(tied, key=labels.index)


class TestEnsemble:
    def _data(self, n=40, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim))
        y = ["Hope" if x[0] > 0 else "NotHope" for x in X]
        return X, y

    def test_k7_distinct_seeds(self):
        X, y = self._data()
        models, records = learn.train_ensemble(X, y, "logreg", 7, 100, 0.9, epochs=20)
        assert len(models) == 7
        assert [r["seed"] for r in records] == list(range(100, 107))

    def test_k1_equals_single_model(self):
        X, y = self._data()
        models, _ = learn.train_ensemble(X, y, "logreg", 1, 0, 0.9, epochs=50)
        for x in X[:10]:
            assert learn.ensemble_predict(models, x) == learn.predict(models[0], x)[0]

    def test_deterministic_reruns(self):
        X, y = self._data()
        a, _ = learn.train_ensemble(X, y, "logreg", 3, 9, 0.9, epochs=30)
        b, _ = learn.train_ensemble(X, y, "logreg", 3, 9, 0.9, epochs=30)
        for x in X:
            assert learn.ensemble_predict(a, x) == learn.ensemble_predict(b, x)

    def test_identical_members_equal_single(self):
        X, y = self._data()
        models, _ = learn.train_ensemble(X, y, "logreg", 1, 5, 0.9, epochs=30)
        clones = models * 5
        for x in X[:20]:
            assert learn.ensemble_predict(clones, x) == learn.predict(models[0], x)[0]

    @pytest.mark.parametrize("kind,params", [
        ("logreg", {"epochs": 40}),
        ("linear_svm", {"epochs": 40}),
        ("random_forest", {"n_trees": 3, "max_depth": 4}),
    ])
    def test_sparse_and_dense_members_agree(self, kind, params):
        X, y = self._data(n=60, dim=6, seed=3)
        X[np.abs(X) < 0.8] = 0.0  # about half the entries
        dense, dense_rec = learn.train_ensemble(X, y, kind, 3, 2, 0.9, **params)
        sparse, sparse_rec = learn.train_ensemble(csr_from_dense(X), y, kind, 3, 2, 0.9,
                                                  **params)
        assert dense_rec == sparse_rec
        for a, b in zip(dense, sparse):
            if kind == "random_forest":
                assert a.trees == b.trees  # same columns, same draws
            else:
                np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=1e-12)
                np.testing.assert_allclose(a.bias, b.bias, rtol=0, atol=1e-12)

    def test_even_k_warns(self):
        X, y = self._data()
        with pytest.warns(UserWarning):
            learn.train_ensemble(X, y, "logreg", 4, 0, 0.9, epochs=1)


class TestExternalPredictions:
    def test_matrix_shape(self, tmp_path):
        paths = []
        for i in range(11):
            p = tmp_path / f"pred{i}.txt"
            p.write_text("Hope_speech\n" * 7, encoding="utf-8")
            paths.append(p)
        matrix = learn.load_external_predictions(paths, 7)
        assert len(matrix) == 11 and all(len(row) == 7 for row in matrix)

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("Hope_speech\n" * 5, encoding="utf-8")
        with pytest.raises(RowCountMismatch):
            learn.load_external_predictions([p], 6)

    def test_unanimous_equals_any_single(self, tmp_path):
        lines = ["Hope_speech", "Non_hope_speech", "not-English"]
        paths = []
        for i in range(3):
            p = tmp_path / f"u{i}.txt"
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths.append(p)
        matrix = learn.load_external_predictions(paths, 3)
        merged = [
            learn.majority_vote([row[i] for row in matrix]) for i in range(3)
        ]
        assert merged == ["Hope", "NotHope", "NotLanguage"]


class TestModelIO:
    def test_linear_round_trip(self, tmp_path):
        X, y = _separable_set()
        model = learn.train_logreg(X, y, epochs=50)
        path = tmp_path / "m.model"
        learn.save_model(model, path)
        loaded = learn.load_model(path)
        assert loaded.kind == model.kind
        assert loaded.classes == model.classes
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.bias, model.bias)

    def test_forest_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 3))
        y = ["A" if x[0] > 0 else "B" for x in X]
        model = learn.train_random_forest(X, y, n_trees=4, max_depth=4, seed=2)
        path = tmp_path / "rf.model"
        learn.save_model(model, path)
        loaded = learn.load_model(path)
        assert loaded.hyperparams == model.hyperparams
        assert {k: type(v) for k, v in loaded.hyperparams.items()} == \
            {"n_trees": int, "max_depth": int, "feature_frac": float}
        for x in rng.normal(size=(30, 3)):
            assert learn.predict(loaded, x) == learn.predict(model, x)


# ---------------------------------------------------------------------------
# Golden model files: a forest and a logreg model trained on the en fixtures
# by the code before trees became flat lists, with the labels they gave the
# en_test.tsv rows.

GOLDEN = FIXTURES / "golden"


def _golden_features():
    """TF-IDF rows and labels of en_train.tsv's Hope/NotHope rows, and the
    rows of en_test.tsv, as the golden models saw them."""
    def rows_and_texts(name, labeled):
        rows = corpus.load_tsv(FIXTURES / name, labeled=labeled)
        return rows, [textprep.normalize_text(r.text) for r in rows]

    train, texts = rows_and_texts("en_train.tsv", True)
    keep = [i for i, r in enumerate(train) if r.label in (Label.HOPE, Label.NOT_HOPE)]
    vocab = features.build_vocab([texts[i] for i in keep])
    _, test_texts = rows_and_texts("en_test.tsv", None)
    X = features.tfidf_vectorize([texts[i] for i in keep], vocab)
    T = features.tfidf_vectorize(test_texts, vocab)
    return X, [train[i].label.value for i in keep], T


def _damaged(damage):
    """A golden model file with one kind of damage: its name, its text, and
    the line the error must name."""
    forest, logreg = ((GOLDEN / f"{name}.model").read_text().splitlines(keepends=True)
                      for name in ("forest", "logreg"))
    trees = [i for i, ln in enumerate(forest) if ln.startswith("tree ")]
    second, last = trees[1], trees[-1]
    name, lines, line_no = {
        "bad header": ("forest", [forest[0].replace("model-v1", "model-v0")]
                       + forest[1:], 1),
        # The first tree loses its last leaf: the next tree line is the fault.
        "truncated tree": ("forest", forest[:second - 1] + forest[second:], second),
        "truncated last tree": ("forest", forest[:-1], len(forest)),
        "missing tree": ("forest", forest[:last], last + 1),
        "malformed n line": ("forest", forest[:2] + ["n 34\n"] + forest[3:], 3),
        "leaf label out of range": ("forest", forest[:-1] + ["n -1 2\n"], len(forest)),
        "missing b line": ("logreg", logreg[:-1], len(logreg)),
        "short w line": ("logreg", logreg[:1] + ["w 0.5 0.25\n"] + logreg[2:], 2),
    }[damage]
    return name, "".join(lines), line_no


class TestGoldenModels:
    @pytest.mark.parametrize("name", ["forest", "logreg"])
    def test_save_of_load_is_byte_identical(self, tmp_path, name):
        path = GOLDEN / f"{name}.model"
        learn.save_model(learn.load_model(path), tmp_path / "m.model")
        assert (tmp_path / "m.model").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name", ["forest", "logreg"])
    def test_loaded_model_gives_recorded_labels(self, name):
        T = _golden_features()[2]
        model = learn.load_model(GOLDEN / f"{name}.model")
        want = (GOLDEN / f"{name}.labels").read_text().splitlines()
        assert len(want) == T.shape[0] == 25 and len(set(want)) == 2
        assert [learn.predict(model, T[i:i + 1])[0] for i in range(25)] == want
        assert [learn.predict(model, T[i])[0] for i in range(25)] == want

    def test_tfidf_matrices_match_the_files(self):
        # Written by the per-doc vectorizer, one row per line, repr floats.
        X, _, T = _golden_features()
        for M, name in ((X, "train"), (T, "test")):
            lines = [" ".join(f"{c}:{v!r}" for c, v in
                              zip(M[r:r + 1].indices.tolist(), M[r:r + 1].data.tolist()))
                     for r in range(M.shape[0])]
            assert "".join(ln + "\n" for ln in lines) == \
                (GOLDEN / f"tfidf_{name}.rows").read_text()

    def test_training_reproduces_the_svm_file(self):
        # Like the forest, the SVM's training has no exp: only products, sums
        # in a fixed order and comparisons.
        X, y, _ = _golden_features()
        model = learn.train_linear_svm(X, y, lr=0.5, epochs=60, C=10.0, seed=0)
        assert _model_bytes(model) == (GOLDEN / "svm.model").read_bytes()

    def test_training_reproduces_the_forest_file(self):
        # Only the forest: its training is comparisons and sums, while numpy
        # versions may differ in the last place of the exp the logreg uses.
        X, y, _ = _golden_features()
        model = learn.train_random_forest(X, y, n_trees=7, max_depth=6, seed=3)
        assert _model_bytes(model) == (GOLDEN / "forest.model").read_bytes()

    @pytest.mark.parametrize("damage", [
        "bad header", "truncated tree", "truncated last tree", "missing tree",
        "malformed n line", "leaf label out of range", "missing b line", "short w line"])
    def test_damaged_file_names_its_line(self, tmp_path, damage):
        name, text, line_no = _damaged(damage)
        path = tmp_path / f"{name}.model"
        path.write_text(text)
        with pytest.raises(MalformedFile, match=rf"{name}\.model: line {line_no}: ") as err:
            learn.load_model(path)
        assert isinstance(err.value, HopedetectError)

    @pytest.mark.parametrize("name", ["forest", "logreg", "svm"])
    @pytest.mark.parametrize("where", ["appended", "line 3"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, name, where):
        lines = (GOLDEN / f"{name}.model").read_bytes().splitlines(keepends=True)
        if where == "appended":
            lines, line_no = lines + [b"\xff\xfe"], len(lines) + 1
        else:
            lines[2], line_no = lines[2][:9] + b"\xff" + lines[2][9:], 3
        path = tmp_path / f"{name}.model"
        path.write_bytes(b"".join(lines))
        with pytest.raises(MalformedFile,
                           match=rf"{name}\.model: line {line_no}: not valid UTF-8"):
            learn.load_model(path)

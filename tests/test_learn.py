import itertools
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import corpus, features, learn, textprep
from hopedetect.corpus import Label
from hopedetect.errors import ConfigError, HopedetectError, MalformedFile
from conftest import FIXTURES, csr_from_dense


def _separable_set():
    # (0,1)->A, (1,0)->B, 10 copies each; separable by x1-x0 sign.
    X = np.array([[0.0, 1.0]] * 10 + [[1.0, 0.0]] * 10)
    y = ["A"] * 10 + ["B"] * 10
    return X, y


def _accuracy(model, X, y):
    pred = learn.predict(model, X)
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
        assert learn.predict(model, X) == ["B"] * 10

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
        with pytest.raises(HopedetectError, match="training data contains a single class"):
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
        assert learn.predict(model, X[:1]) == [model.classes[0]]

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
            shifted = model.weights @ x + model.bias + 5.0
            assert learn.predict(model, x[None]) == [model.classes[int(np.argmax(shifted))]]


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


def _midpoint(lo, hi):
    """The split search's threshold between lo and hi."""
    with np.errstate(over="ignore"):
        mid = (np.asarray(lo) + hi) / 2
    return np.where(np.isfinite(mid), mid, lo / 2 + hi / 2)


def _first_within_lowest(candidates):
    """The first (impurity, ...) candidate within 1e-12 of the lowest."""
    lowest = min(c[0] for c in candidates)
    return next(c for c in candidates if c[0] <= lowest + 1e-12)


def _ref_tree(X, y, depth, max_depth):
    majority = sorted(Counter(y).items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    if depth >= max_depth or len(set(y)) == 1:
        return ("leaf", majority)
    candidates = []
    for f in range(X.shape[1]):
        vals = sorted(set(X[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = float(_midpoint(lo, hi))
            left = [i for i in range(len(y)) if X[i, f] < thr]
            right = [i for i in range(len(y)) if X[i, f] >= thr]
            g = (
                len(left) * _ref_gini([y[i] for i in left])
                + len(right) * _ref_gini([y[i] for i in right])
            ) / len(y)
            candidates.append((g, f, thr, left, right))
    if not candidates:
        return ("leaf", majority)
    _, f, thr, left, right = _first_within_lowest(candidates)
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
        assert learn.predict(model, X[:1]) == ["A"]

    def test_matches_reference_tree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        y = ["A" if x[0] + x[1] > 0 else "B" for x in X]
        model = learn.train_random_forest(
            X, y, n_trees=1, max_depth=6, feature_frac=1.0, seed=0, bootstrap=False
        )
        ref = _ref_tree(X, y, 0, 6)
        assert learn.predict(model, X) == [_ref_predict(ref, x) for x in X]

    def test_prediction_is_mode_of_trees(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = ["A" if x[0] > 0 else "B" for x in X]
        model = learn.train_random_forest(X, y, n_trees=9, max_depth=4, seed=1)
        rows = rng.normal(size=(100, 4))
        votes = [learn.predict(replace(model, trees=[t]), rows) for t in model.trees]
        for label, row_votes in zip(learn.predict(model, rows), zip(*votes)):
            assert Counter(row_votes)[label] == Counter(row_votes).most_common(1)[0][1]

    def test_forced_identical_trees_equal_one_tree(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 3))
        y = ["A" if x[2] > 0 else "B" for x in X]
        one = learn.train_random_forest(X, y, n_trees=1, feature_frac=1.0,
                                        seed=3, bootstrap=False)
        many = learn.train_random_forest(X, y, n_trees=5, feature_frac=1.0,
                                         seed=3, bootstrap=False)
        rows = rng.normal(size=(50, 3))
        assert learn.predict(one, rows) == learn.predict(many, rows)

    def test_midpoint_of_huge_values_is_finite(self, tmp_path):
        # (1e308 + 1.5e308) / 2 overflows; the threshold is taken as halves.
        X = np.array([[1e308], [1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = learn.train_random_forest(X, ["A", "B"], n_trees=1, seed=0,
                                              bootstrap=False)
        tree = model.trees[0]
        assert tree.feature == [0, -1, -1] and 1e308 < tree.threshold[0] < 1.5e308
        assert learn.predict(model, X) == ["A", "B"]
        learn.save_model(model, tmp_path / "m.model")
        assert learn.predict(learn.load_model(tmp_path / "m.model"), X) == ["A", "B"]

    def test_trees_do_not_depend_on_the_other_trees(self):
        X, y, _ = _golden_features()
        three = learn.train_random_forest(X, y, n_trees=3, max_depth=6, seed=4)
        five = learn.train_random_forest(X, y, n_trees=5, max_depth=6, seed=4)
        assert five.trees[:3] == three.trees

    def test_batching_does_not_change_the_trees(self, monkeypatch):
        X, y, _ = _golden_features()
        params = dict(n_trees=7, max_depth=6, seed=3)
        batched = learn.train_random_forest(X, y, **params)
        nodes_per_search = []
        search = learn._best_split

        def one_at_a_time(*args):
            nodes_per_search.append(len(args[-1]))
            return search(*args)

        monkeypatch.setattr(learn, "_best_split", one_at_a_time)
        monkeypatch.setattr(learn, "_SEARCH_ENTRIES", 0)
        alone = learn.train_random_forest(X, y, **params)
        assert set(nodes_per_search) == {1} and len(nodes_per_search) > 7
        assert _model_bytes(alone) == _model_bytes(batched)


# ---------------------------------------------------------------------------
# Oracle trees: the node objects and their walk, as trees were stored and
# walked before the flat lists.


@dataclass
class _Node:
    """A tree node, as trees were stored before the flat lists."""

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


def _flatten(root: _Node) -> learn.DecisionTree:
    """The tree at ``root`` in level order: breadth-first, left to right."""
    tree = learn.DecisionTree()
    queue = [root]
    for node in queue:  # grows as inner nodes are met
        tree.feature.append(node.feature)
        tree.threshold.append(node.threshold)
        tree.label.append(node.label)
        if node.feature >= 0:
            queue += [node.left, node.right]
    return tree


def _left_children(tree: learn.DecisionTree) -> dict[int, int]:
    """Inner node i's left child, counted in a loop: 2k + 1 for the k-th
    inner node in level order; the right child is the node after it."""
    inner = [i for i, f in enumerate(tree.feature) if f >= 0]
    return {i: 2 * k + 1 for k, i in enumerate(inner)}


# ---------------------------------------------------------------------------
# Oracle: the exhaustive threshold scan over a dense copy that the sorted
# split search replaced, one node at a time, each tree breadth-first from
# its own generator; it builds node objects, flattened for save_model.


def _oracle_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _oracle_grow_tree(X, y_idx, n_classes, indices, max_depth, n_feats, rng):
    """One tree, its nodes split in breadth-first order: level by level,
    left to right, each drawing its features from the tree's ``rng``."""
    root = _Node()
    queue = [(root, indices, 0)]
    for node, indices, depth in queue:  # grows as nodes split
        counts = np.bincount(y_idx[indices], minlength=n_classes)
        majority = int(counts.argmax())
        if depth >= max_depth or counts.max() == counts.sum():
            node.label = majority
            continue
        dim = X.shape[1]
        feats = (rng.choice(dim, n_feats, replace=False) if n_feats < dim
                 else np.arange(dim))
        candidates = []  # (impurity, feature, threshold)
        for f in sorted(feats):
            values = np.unique(X[indices, f])
            if len(values) < 2:
                continue
            for threshold in _midpoint(values[:-1], values[1:]):
                mask = X[indices, f] < threshold
                left, right = indices[mask], indices[~mask]
                lc = np.bincount(y_idx[left], minlength=n_classes)
                rc = np.bincount(y_idx[right], minlength=n_classes)
                impurity = (len(left) * _oracle_gini(lc)
                            + len(right) * _oracle_gini(rc)) / len(indices)
                candidates.append((impurity, f, float(threshold)))
        if not candidates:
            node.label = majority
            continue
        _, f, threshold = _first_within_lowest(candidates)
        mask = X[indices, f] < threshold
        node.feature, node.threshold = int(f), threshold
        node.left, node.right = _Node(), _Node()
        queue.append((node.left, indices[mask], depth + 1))
        queue.append((node.right, indices[~mask], depth + 1))
    return root


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
    n = Xm.shape[0]
    roots, trees = [], []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        roots.append(_oracle_grow_tree(Xm, y_idx, len(class_names), np.asarray(sample),
                                       max_depth, n_feats, rng))
        trees.append(_flatten(roots[-1]))
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

    @pytest.mark.parametrize("seed", range(3))
    def test_full_columns_match_the_oracle(self, seed):
        # Every column stores every row, so no search has a zeros item.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6))
        y = ["ABC"[c] for c in rng.integers(0, 3, size=40)]
        params = dict(n_trees=4, max_depth=5, seed=seed)
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
        assert learn.predict(model, csr) == learn.predict(model, X)
        assert sum(p == t for p, t in zip(learn.predict(model, X), y)) > 20


def _round_trip(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        learn.save_model(model, path)
        return learn.load_model(path)


class TestFlatTreeOracle:
    """The flat level-order trees against the node objects they replaced."""

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
        for tree, root in zip(model.trees, roots):
            one = replace(model, trees=[tree])
            want = [model.classes[_node_walk(root, x)] for x in rows]
            assert learn.predict(one, rows) == want
            assert learn.predict(one, csr) == want
        # The vote as it was counted over the node walks.
        want = [model.classes[int(np.argmax(np.bincount(
            [_node_walk(root, x) for root in roots], minlength=len(model.classes))))]
            for x in rows]
        assert learn.predict(model, rows) == want
        assert learn.predict(model, csr) == want

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
        labels = learn.predict(model, rows)
        assert learn.predict(model, csr_from_dense(rows)) == labels
        for x, label in zip(rows, labels):
            # The dense product over the whole row, as predict took it before:
            # only the summation order of the dot products differs, so the
            # labels agree where no two scores are within rounding.
            z = W @ x + b
            top = np.sort(z)[::-1]
            if n_classes == 1 or top[0] - top[1] > 1e-12:
                assert label == model.classes[int(np.argmax(z))]


# ---------------------------------------------------------------------------
# Oracle: the forest vote as every tree's walk counted it, before a forest
# walked only the trees whose zero path a row's stored features reach.


def _walk_votes(model, x):
    """The label of dense row x, walking every tree from its root."""
    votes = [0] * len(model.classes)
    for tree in model.trees:
        left, i = _left_children(tree), 0
        while tree.feature[i] >= 0:
            i = left[i] if x[tree.feature[i]] < tree.threshold[i] else left[i] + 1
        votes[tree.label[i]] += 1
    raw = [v / len(model.trees) for v in votes]
    return model.classes[max(range(len(raw)), key=raw.__getitem__)]


# Thresholds at, below and just above zero, and either side of -0.0.
_THRESHOLDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.0, -0.25, 0.25, 1.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
_CELLS = st.one_of(st.sampled_from([-0.0, np.nan, -1.0, 0.25]), _THRESHOLDS)


def _random_tree(data, dim, n_classes, max_depth):
    """A tree of random shape, features, thresholds and labels, grown in
    level order as the trainer and load_model grow theirs."""
    tree = learn.DecisionTree()
    depths = [0]
    for depth in depths:  # grows as inner nodes are drawn
        if depth == max_depth or data.draw(st.integers(0, 3)) == 0:
            f, threshold, label = -1, 0.0, data.draw(st.integers(0, n_classes - 1))
        else:
            f, threshold, label = (data.draw(st.integers(0, dim - 1)),
                                   data.draw(_THRESHOLDS), -1)
            depths += [depth + 1, depth + 1]
        tree.feature.append(f)
        tree.threshold.append(threshold)
        tree.label.append(label)
    return tree


class TestZeroPathOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 12), n_classes=st.integers(1, 3),
           max_depth=st.integers(0, 5), n_trees=st.integers(1, 7))
    def test_zero_path_vote_matches_every_tree_walked(self, data, dim, n_classes,
                                                      max_depth, n_trees):
        trees = [_random_tree(data, dim, n_classes, max_depth) for _ in range(n_trees)]
        model = learn.TrainedModel(kind="random_forest",
                                   classes=list("ABC"[:n_classes]), dim=dim,
                                   train_seed=0, trees=trees)
        for _ in range(data.draw(st.integers(1, 6))):
            # Mostly sparse rows, some dense: cells drawn at random columns.
            x = np.zeros(dim)
            for col in data.draw(st.lists(st.integers(0, dim - 1), unique=True)):
                x[col] = data.draw(_CELLS)
            want = [_walk_votes(model, x)]
            assert learn.predict(model, x[None]) == want
            # The row as CSR, storing its non-zero cells and, explicitly,
            # some of its zeros.
            zeros = np.flatnonzero(x == 0)
            explicit = data.draw(st.lists(st.sampled_from(zeros), unique=True)
                                 if len(zeros) else st.just([]))
            cols = np.union1d(np.flatnonzero(x != 0), np.array(explicit, dtype=int))
            csr = features.CsrMatrix(x[cols], cols, [0, len(cols)], dim)
            assert learn.predict(model, csr) == want

    def test_zero_paths_follow_the_trees(self):
        # Tree 0 tests feature 2 at node 0 and feature 0 at node 1 on its
        # zero path (0.0 < 0.5 goes left, 0.0 < 0.0 does not); tree 1 is a
        # single leaf; tree 2 tests feature 1 twice, at nodes 0 and 1. The
        # children of node 0 are nodes 1 and 2, those of node 1 nodes 3 and 4.
        trees = [learn.DecisionTree(feature=[2, 0, -1, -1, -1],
                                    threshold=[0.5, 0.0, 0.0, 0.0, 0.0],
                                    label=[-1, -1, 0, 0, 1]),
                 learn.DecisionTree(feature=[-1], threshold=[0.0], label=[1]),
                 learn.DecisionTree(feature=[1, 1, -1, -1, -1],
                                    threshold=[0.5, 0.25, 0.0, 0.0, 0.0],
                                    label=[-1, -1, 1, 0, 1])]
        model = learn.TrainedModel(kind="random_forest", classes=["A", "B"], dim=3,
                                   train_seed=0, trees=trees)
        assert model.zero_paths == learn.ZeroPaths(
            label=[1, 1, 0], votes=[1, 2],
            first_test={2: [(0, 0)], 0: [(0, 1)], 1: [(2, 0)]})
        assert learn.predict(model, np.zeros((1, 3))) == ["B"]
        # Walked from node 1 of tree 0 and node 0 of tree 2; both turn at node 1.
        row = np.array([[-2.0, 0.3, 0.0]])
        assert [learn.predict(replace(model, trees=[t]), row)[0] for t in trees] == \
            ["A", "B", "B"]
        assert learn.predict(model, row) == ["B"]
        assert replace(model, trees=trees[1:]).zero_paths.votes == [1, 1]

    def test_loaded_forest_predicts_like_the_trained_one(self, tmp_path):
        X, y, T = _golden_features()
        model = learn.train_random_forest(X, y, n_trees=15, max_depth=8, seed=5)
        learn.save_model(model, tmp_path / "m.model")
        loaded = learn.load_model(tmp_path / "m.model")
        assert loaded.zero_paths == model.zero_paths
        for M in (X, T):
            want = [_walk_votes(model, M[i]) for i in range(M.shape[0])]
            assert learn.predict(model, M) == want
            assert learn.predict(loaded, M) == want


# ---------------------------------------------------------------------------
# Oracle: predict as it labelled one row before it took a matrix, kept as it
# was apart from names and the score dict it returned beside the label.


def _one_row_predict(model, x):
    if isinstance(x, features.CsrMatrix):
        shape, cols, vals = x.shape, x.indices, x.data
    else:
        vec = np.asarray(x, dtype=float)
        shape = vec.shape if vec.ndim == 2 else (1,) + vec.shape
        vec = vec.reshape(-1)
        cols = np.flatnonzero(vec)
        vals = vec[cols]
    assert shape == (1, model.dim)
    if model.kind == "random_forest":
        row = dict(zip(cols.tolist(), vals.tolist()))
        zero = model.zero_paths
        votes = zero.votes.copy()
        if len(row) < len(zero.first_test):
            start = {}
            for f in row.keys() & zero.first_test.keys():
                for t, node in zero.first_test[f]:
                    if start.get(t, node) >= node:
                        start[t] = node
        else:
            start = dict.fromkeys(range(len(model.trees)), 0)
        for t, i in start.items():
            tree = model.trees[t]
            feature, threshold, child = tree.feature, tree.threshold, tree.child
            while (f := feature[i]) >= 0:
                i = child[i] if row.get(f, 0.0) < threshold[i] else child[i] + 1
            votes[zero.label[t]] -= 1
            votes[tree.label[i]] += 1
        raw = [v / len(model.trees) for v in votes]
        best = max(range(len(raw)), key=raw.__getitem__)
    else:
        raw = model.weights.take(cols, axis=1) @ vals + model.bias
        if model.kind == "logreg":
            raw -= raw.max()
            p = np.exp(raw)
            raw = p / p.sum()
        best = int(np.argmax(raw))
    return model.classes[best]


# Weights and cells on a grid of halves: sums of their products are exact, so
# class scores tie exactly or differ by far more than rounding.
_GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


class TestMatrixPredictOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["logreg", "linear_svm", "random_forest"]),
           dim=st.integers(1, 8), n_classes=st.integers(1, 3), n_rows=st.integers(0, 8))
    def test_labels_equal_one_row_predict(self, data, kind, dim, n_classes, n_rows):
        classes = list("ABC"[:n_classes])
        if kind == "random_forest":
            trees = [_random_tree(data, dim, n_classes, data.draw(st.integers(0, 4)))
                     for _ in range(data.draw(st.integers(1, 6)))]
            model = learn.TrainedModel(kind=kind, classes=classes, dim=dim,
                                       train_seed=0, trees=trees)
            cells = st.one_of(_CELLS, _GRID)
        else:
            W = np.array(data.draw(st.lists(_GRID, min_size=n_classes * dim,
                                            max_size=n_classes * dim)))
            b = np.array(data.draw(st.lists(_GRID, min_size=n_classes,
                                            max_size=n_classes)))
            model = learn.TrainedModel(kind=kind, classes=classes, dim=dim, train_seed=0,
                                       weights=W.reshape(n_classes, dim), bias=b)
            cells = _GRID
        # Each row is empty, dense (every cell stored, which a forest walks
        # from every root) or sparse.
        X = np.zeros((n_rows, dim))
        for x in X:
            shape = data.draw(st.sampled_from(["empty", "dense", "sparse"]))
            if shape == "dense":
                x[:] = data.draw(st.lists(cells.filter(bool), min_size=dim, max_size=dim))
            elif shape == "sparse":
                for col in data.draw(st.lists(st.integers(0, dim - 1), unique=True)):
                    x[col] = data.draw(cells)
        want = [_one_row_predict(model, X[i:i + 1]) for i in range(n_rows)]
        assert learn.predict(model, X) == want
        # As CSR, storing the non-zero cells and some zeros explicitly.
        indptr, cols = [0], []
        for x in X:
            stored = np.flatnonzero(x != 0).tolist()
            stored += data.draw(st.lists(st.sampled_from(np.flatnonzero(x == 0).tolist()),
                                         unique=True) if (x == 0).any() else st.just([]))
            cols += sorted(stored)
            indptr.append(len(cols))
        rows = np.repeat(np.arange(n_rows), np.diff(indptr))
        csr = features.CsrMatrix(X[rows, cols], cols, indptr, dim)
        assert learn.predict(model, csr) == \
            [_one_row_predict(model, csr[i:i + 1]) for i in range(n_rows)]


class TestPredict:
    def test_zero_logreg_tie_break(self):
        model = learn.TrainedModel(
            kind="logreg", classes=["A", "B"], dim=2, train_seed=0,
            weights=np.zeros((2, 2)), bias=np.zeros(2),
        )
        assert learn.predict(model, np.array([[1.0, 2.0]])) == ["A"]

    def test_dim_mismatch(self):
        model = learn.TrainedModel(
            kind="logreg", classes=["A", "B"], dim=3, train_seed=0,
            weights=np.zeros((2, 3)), bias=np.zeros(2),
        )
        with pytest.raises(HopedetectError, match=r"rows of shape \(2,\) for model dim 3"):
            learn.predict(model, np.zeros(2))

    def test_forest_vote_tie_goes_to_first_class(self):
        trees = [learn.DecisionTree(feature=[-1], threshold=[0.0], label=[label])
                 for label in (1, 0, 2, 1, 0)]
        model = learn.TrainedModel(kind="random_forest", classes=["A", "B", "C"],
                                   dim=1, train_seed=0, trees=trees)
        assert learn.predict(model, np.zeros((1, 1))) == ["A"]

    def test_matrix_forms_agree_and_other_shapes_are_refused(self):
        model = learn.TrainedModel(
            kind="linear_svm", classes=["A", "B"], dim=3, train_seed=0,
            weights=np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]]), bias=np.zeros(2),
        )
        X = np.array([[0.5, 0.0, 2.0], [2.0, 0.5, 0.0]])
        csr = csr_from_dense(X)
        for rows in (X, X.tolist(), csr, csr[[0, 1]]):
            assert learn.predict(model, rows) == ["B", "A"]
        for rows in (X[:1], csr[0:1], csr[[0]]):
            assert learn.predict(model, rows) == ["B"]
        assert learn.predict(model, csr[0:0]) == learn.predict(model, X[:0]) == []
        assert "zero_paths" not in vars(model)  # a linear model indexes no trees
        for rows in (X[0], csr[0], X[:, :2], csr_from_dense(X[:, :2]), X[None]):
            with pytest.raises(HopedetectError, match=r"rows of shape .* for model dim 3"):
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
        with pytest.raises(HopedetectError, match="no votes"):
            learn.majority_vote([])

    @pytest.mark.parametrize("tie_break", learn.TIE_BREAKS)
    def test_members_and_names_mixed(self, tie_break):
        # A member is its name: mixed votes count together, ties included.
        labels = [*Label, "Hope", "NotHope", "NotLanguage"]
        for votes in itertools.product(labels, repeat=4):
            names = [str.__str__(v) for v in votes]
            assert learn.majority_vote(list(votes), tie_break) == \
                learn.majority_vote(names, tie_break)
        assert learn.majority_vote([Label.HOPE, "Hope", "NotHope"], tie_break) == "Hope"
        assert learn.majority_vote(
            [Label.NOT_LANGUAGE, "Hope", "NotLanguage", Label.HOPE], tie_break) == "Hope"

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


@pytest.mark.parametrize("kind", sorted(learn._TRAINERS))
def test_trainer_names_label_members_by_their_names(kind):
    # Label members train the model that their names train.
    X, y = _separable_set()
    members = [Label.HOPE if v == "A" else Label.NOT_HOPE for v in y]
    names = ["Hope" if v == "A" else "NotHope" for v in y]
    params = {"random_forest": {"n_trees": 3}}.get(kind, {"epochs": 20})
    trained = [learn._TRAINERS[kind](X, labels, seed=1, **params)
               for labels in (members, names)]
    assert [m.classes for m in trained] == [["Hope", "NotHope"]] * 2
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.model" for i in range(2)]
        for model, path in zip(trained, paths):
            learn.save_model(model, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
    assert learn.predict(trained[0], X) == names


class TestEnsemble:
    def _data(self, n=40, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim))
        y = ["Hope" if x[0] > 0 else "NotHope" for x in X]
        return X, y

    def test_k7_distinct_seeds(self):
        X, y = self._data()
        models, _ = learn.train_ensemble(X, y, "logreg", 7, 100, 0.9, epochs=20)
        assert len(models) == 7
        assert [m.train_seed for m in models] == list(range(100, 107))

    def test_k1_equals_single_model(self):
        X, y = self._data()
        models, _ = learn.train_ensemble(X, y, "logreg", 1, 0, 0.9, epochs=50)
        assert [learn.ensemble_predict(models, X[i:i + 1]) for i in range(10)] == \
            learn.predict(models[0], X[:10])

    def test_deterministic_reruns(self):
        X, y = self._data()
        a, _ = learn.train_ensemble(X, y, "logreg", 3, 9, 0.9, epochs=30)
        b, _ = learn.train_ensemble(X, y, "logreg", 3, 9, 0.9, epochs=30)
        for i in range(len(X)):
            assert learn.ensemble_predict(a, X[i:i + 1]) == learn.ensemble_predict(b, X[i:i + 1])

    def test_identical_members_equal_single(self):
        X, y = self._data()
        models, _ = learn.train_ensemble(X, y, "logreg", 1, 5, 0.9, epochs=30)
        clones = models * 5
        assert [learn.ensemble_predict(clones, X[i:i + 1]) for i in range(20)] == \
            learn.predict(models[0], X[:20])

    @pytest.mark.parametrize("kind,params", [
        ("logreg", {"epochs": 40}),
        ("linear_svm", {"epochs": 40}),
        ("random_forest", {"n_trees": 3, "max_depth": 4}),
    ])
    def test_sparse_and_dense_members_agree(self, kind, params):
        X, y = self._data(n=60, dim=6, seed=3)
        X[np.abs(X) < 0.8] = 0.0  # about half the entries
        dense, dense_val = learn.train_ensemble(X, y, kind, 3, 2, 0.9, **params)
        sparse, sparse_val = learn.train_ensemble(csr_from_dense(X), y, kind, 3, 2, 0.9,
                                                  **params)
        assert dense_val == sparse_val
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
        with pytest.raises(HopedetectError, match=r"pred\.txt: 5 rows, expected 6"):
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
        rows = rng.normal(size=(30, 3))
        assert learn.predict(loaded, rows) == learn.predict(model, rows)


# ---------------------------------------------------------------------------
# Golden model files: a forest and a logreg model trained on the en fixtures,
# with the labels they gave the en_test.tsv rows. A new file format rewrites
# the .model files; the .labels files stay as they are.

GOLDEN = FIXTURES / "golden"


def _golden_features():
    """TF-IDF rows and labels of en_train.tsv's Hope/NotHope rows, and the
    rows of en_test.tsv, as the golden models saw them."""
    def rows_and_texts(name, labeled):
        rows = corpus.load_tsv(FIXTURES / name, labeled=labeled)
        return rows, textprep.normalize_text([r.text for r in rows])

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
    trees = [i for i, ln in enumerate(forest) if ln == "tree\n"]
    second, last = trees[1], trees[-1]
    name, lines, line_no = {
        # A file of the previous format, whose trees were in pre-order.
        "bad header": ("forest", [forest[0].replace("model-v2", "model-v1")]
                       + forest[1:], 1),
        # The first tree loses its last leaf: the next tree line is the fault.
        "truncated tree": ("forest", forest[:second - 1] + forest[second:], second),
        "truncated last tree": ("forest", forest[:-1], len(forest)),
        # The first tree gains a leaf after its last one.
        "node after last leaf": ("forest", forest[:second] + ["n -1 0\n"]
                                 + forest[second:], second + 1),
        "missing tree": ("forest", forest[:last], last + 1),
        "malformed n line": ("forest", forest[:2] + ["n 34\n"] + forest[3:], 3),
        "leaf label out of range": ("forest", forest[:-1] + ["n -1 2\n"], len(forest)),
        "missing b line": ("logreg", logreg[:-1], len(logreg)),
        "short w line": ("logreg", logreg[:1] + ["w 0.5 0.25\n"] + logreg[2:], 2),
        "nan weight": ("logreg", logreg[:2] + ["w nan " + logreg[2].split(" ", 2)[2]]
                       + logreg[3:], 3),
        "inf bias": ("logreg", logreg[:-1] + ["b 0.0 inf\n"], len(logreg)),
        "-inf threshold": ("forest", forest[:2] + ["n 34 -inf\n"] + forest[3:], 3),
        "word weight": ("logreg", logreg[:1] + ["w x " + logreg[1].split(" ", 2)[2]]
                        + logreg[2:], 2),
        "word threshold": ("forest", forest[:2] + ["n 34 x\n"] + forest[3:], 3),
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
        assert learn.predict(model, T) == want
        assert learn.predict(model, np.asarray(T)) == want

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
        "bad header", "truncated tree", "truncated last tree", "node after last leaf",
        "missing tree", "malformed n line", "leaf label out of range", "missing b line", "short w line"])
    def test_damaged_file_names_its_line(self, tmp_path, damage):
        name, text, line_no = _damaged(damage)
        path = tmp_path / f"{name}.model"
        path.write_text(text)
        with pytest.raises(MalformedFile, match=rf"{name}\.model: line {line_no}: ") as err:
            learn.load_model(path)
        assert isinstance(err.value, HopedetectError)

    @pytest.mark.parametrize("damage,value", [
        ("nan weight", "nan"), ("inf bias", "inf"), ("-inf threshold", "-inf"),
        ("word weight", "x"), ("word threshold", "x")])
    def test_non_finite_number_names_its_line(self, tmp_path, damage, value):
        name, text, line_no = _damaged(damage)
        path = tmp_path / f"{name}.model"
        path.write_text(text)
        with pytest.raises(MalformedFile, match=rf"{name}\.model: line {line_no}: "
                                                rf"'{value}' is not a finite number"):
            learn.load_model(path)

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

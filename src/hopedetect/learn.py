"""Classical classifiers and the majority-voting ensemble.

Three trainers (softmax regression, one-vs-rest linear SVM, random forest),
a shared predict, majority voting with a documented tie-break, ensemble
training over reshuffled splits, and ingestion of externally produced
prediction files. All training is deterministic given its seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import Label, parse_label, split_positions, utf8_lines
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyPredictions,
    MalformedFile,
    RowCountMismatch,
    SingleClass,
)
from .features import CsrMatrix

MODEL_VERSION = "model-v1"

# Canonical label order used for tie-breaking.
CLASS_ORDER = (Label.HOPE, Label.NOT_HOPE, Label.NOT_LANGUAGE)

# The tie-break rules of majority_vote.
TIE_BREAKS = ("MajorityClassPrior", "ClassOrder")


@dataclass
class DecisionTree:
    """One tree as parallel lists, its nodes in pre-order. Node i is a leaf
    voting for class ``label[i]`` when ``feature[i]`` is -1. Otherwise a row
    with ``x[feature[i]] < threshold[i]`` goes left, to node i + 1, and any
    other row goes to node ``right[i]``."""

    max_depth: int
    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    label: list[int] = field(default_factory=list)

    def add(self, feature: int = -1, threshold: float = 0.0, label: int = -1) -> int:
        """Append a node and return its index. The caller sets an inner
        node's ``right`` once its left subtree is in place."""
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.right.append(-1)
        self.label.append(label)
        return len(self.feature) - 1


@dataclass
class TrainedModel:
    kind: str  # "logreg" | "linear_svm" | "random_forest"
    classes: list[str]
    dim: int
    train_seed: int
    hyperparams: dict[str, int | float] = field(default_factory=dict)
    weights: np.ndarray | None = None  # classes x dim
    bias: np.ndarray | None = None
    trees: list[DecisionTree] = field(default_factory=list)


def _encode_labels(y):
    classes = sorted(set(y), key=lambda c: str(c))
    lut = {c: i for i, c in enumerate(classes)}
    return np.array([lut[v] for v in y]), [str(c) for c in classes]


def _check_training_input(X: np.ndarray, y_idx: np.ndarray, n_classes: int):
    if X.shape[0] != len(y_idx) or X.shape[0] < 2:
        raise DimensionMismatch(
            f"{X.shape[0]} vectors vs {len(y_idx)} labels (need >= 2 rows)"
        )
    if n_classes < 2:
        raise SingleClass("training data contains a single class")


def _descend(kind, X, class_names, seed, hyperparams, gradient) -> TrainedModel:
    """A linear model trained by full-batch gradient descent from zero:
    ``epochs`` steps of size ``lr`` against ``gradient(W, b)``. Weights that
    are not finite after the last step raise ConfigError."""
    lr = hyperparams["lr"]
    W = np.zeros((len(class_names), X.shape[1]))
    b = np.zeros(len(class_names))
    # Overflow is reported once, below, rather than as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hyperparams["epochs"]):
            gW, gb = gradient(W, b)
            W -= lr * gW
            b -= lr * gb
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise ConfigError(f"{kind} training diverged with lr={lr!r}: its weights "
                          "are not finite; use a smaller lr")
    return TrainedModel(
        kind=kind, classes=class_names, dim=X.shape[1], train_seed=seed,
        hyperparams=hyperparams, weights=W, bias=b,
    )


# The gradients work on class-major (classes, n) arrays: a reduction over
# the classes is then one pass per class row, adding the classes left to
# right, and a class's sum over the rows is a sequential run along its row.


def _scores(W, b, X):
    """Class scores, classes x n: ``X @ W.T + b`` transposed."""
    scores = (X @ W.T).T
    scores += b[:, None]
    return scores


def _row_sums(D):
    """Sum of each row of D, adding its entries in order to 0.0: as
    ``D.T.sum(axis=0)`` does for a C-ordered D.T. The cumulative sum starts
    from the first entry instead, which differs only for a row of -0.0s;
    adding 0.0 makes that sum 0.0 and leaves any other unchanged."""
    return np.cumsum(D, axis=1)[:, -1] + 0.0


def _left_operand(D, X):
    """D laid out for ``D @ X``. For a dense X, D gets the memory layout of
    a transposed C-ordered (n, classes) array, the operand of the row-major
    gradients, so that BLAS takes the same path and adds in the same order."""
    return D if isinstance(X, CsrMatrix) else np.asfortranarray(D)


# ---------------------------------------------------------------------------
# Softmax regression


def logreg_objective(W, b, X, y_idx, l2):
    """Mean cross-entropy plus L2 penalty on the weights (not the bias)."""
    z = X @ W.T + b
    z -= z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(len(y_idx)), y_idx].mean()
    return nll + 0.5 * l2 * float((W * W).sum())


def logreg_gradient(W, b, X, y_idx, l2):
    P = _scores(W, b, X)
    P -= P.max(axis=0)
    np.exp(P, out=P)
    P /= P.sum(axis=0)
    P[y_idx, np.arange(len(y_idx))] -= 1.0
    P /= len(y_idx)
    gW = _left_operand(P, X) @ X
    gW += l2 * W
    return gW, _row_sums(P)


def train_logreg(X, y, lr: float = 0.1, epochs: int = 500, l2: float = 1e-4,
                 seed: int = 0) -> TrainedModel:
    y_idx, class_names = _encode_labels(y)
    _check_training_input(X, y_idx, len(class_names))
    return _descend("logreg", X, class_names, seed,
                    {"lr": lr, "epochs": epochs, "l2": l2},
                    lambda W, b: logreg_gradient(W, b, X, y_idx, l2))


# ---------------------------------------------------------------------------
# One-vs-rest linear SVM


def svm_objective(W, b, X, signs, C):
    """Per-class hinge loss (mean) times C plus 0.5*||w||^2, summed over rows.

    ``signs`` is a classes x n matrix of +-1 one-vs-rest targets.
    """
    margins = X @ W.T + b  # n x classes
    hinge = np.maximum(0.0, 1.0 - signs.T * margins)
    return float(C * hinge.mean(axis=0).sum() + 0.5 * (W * W).sum())


def svm_gradient(W, b, X, signs, C):
    margins = _scores(W, b, X)
    active = (signs * margins < 1.0).astype(float)  # subgradient choice at the kink
    coef = -(signs * active) / X.shape[0]
    gW = _left_operand(coef, X) @ X
    gW *= C
    gW += W
    return gW, C * _row_sums(coef)


def train_linear_svm(X, y, lr: float = 0.01, epochs: int = 500, C: float = 1.0,
                     seed: int = 0) -> TrainedModel:
    y_idx, class_names = _encode_labels(y)
    _check_training_input(X, y_idx, len(class_names))
    signs = np.where(
        np.arange(len(class_names))[:, None] == y_idx[None, :], 1.0, -1.0
    )
    return _descend("linear_svm", X, class_names, seed,
                    {"lr": lr, "epochs": epochs, "C": C},
                    lambda W, b: svm_gradient(W, b, X, signs, C))


# ---------------------------------------------------------------------------
# Random forest


def _transpose(X) -> CsrMatrix:
    """X (ndarray or CsrMatrix) transposed, as a CsrMatrix: row j holds the
    stored (non-zero) entries of column j of X, at their rows of X."""
    if isinstance(X, CsrMatrix):
        n_rows, dim = X.shape
        order = np.argsort(X.indices, kind="stable")
        rows = X._row_of[order]
        vals = X.data[order]
        indptr = np.searchsorted(X.indices[order], np.arange(dim + 1))
    else:
        # Boolean indexing walks A.T in C order, column of A after column,
        # and gives its result a buffer of its own; np.nonzero's row and
        # column arrays would both be views of one (nnz, 2) array.
        AT = np.asarray(X, dtype=float).T
        n_rows = AT.shape[1]
        stored = AT != 0
        rows = np.broadcast_to(np.arange(n_rows), AT.shape)[stored]
        vals = AT[stored]
        indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    return CsrMatrix(vals, rows, indptr, n_rows)


def _gini(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of class counts; 0 for an empty row."""
    p = counts / np.maximum(totals, 1)[:, None]
    return np.where(totals > 0, 1.0 - (p * p).sum(axis=1), 0.0)


def _best_split(XT: CsrMatrix, y_idx, counts, indices, feats):
    """The split ``x[f] < threshold`` of the node's rows with the lowest
    weighted Gini impurity, as (f, threshold, left mask), or None.

    Candidates are the midpoints between distinct adjacent values of each
    feature in ``feats`` (ascending), thresholds ascending within a feature;
    a later candidate wins only if it is more than 1e-12 below the best so
    far. Only stored entries are read: the zeros of a column at the node
    are one item, holding their class counts.
    """
    n, n_classes = len(indices), len(counts)
    copies = np.bincount(indices, minlength=XT.shape[1])  # bootstrap duplicates
    sampled = XT[feats]
    hit = copies[sampled.indices] > 0
    # The row of an entry in ``sampled`` is its column's slot in ``feats``.
    slot, rows, value = sampled._row_of[hit], sampled.indices[hit], sampled.data[hit]
    # Class counts of each stored entry, and of each column's zeros.
    stored = np.zeros((len(rows), n_classes), dtype=np.int64)
    stored[np.arange(len(rows)), y_idx[rows]] = copies[rows]
    zeros = np.repeat(counts[None], len(feats), axis=0)
    np.subtract.at(zeros, slot, stored)
    has_zeros = zeros.any(axis=1)
    # Items of every column, sorted by column, then by value.
    slot = np.concatenate((slot, np.flatnonzero(has_zeros)))
    value = np.concatenate((value, np.zeros(has_zeros.sum())))
    items = np.concatenate((stored, zeros[has_zeros]))
    order = np.lexsort((value, slot))
    slot, value, items = slot[order], value[order], items[order]
    # Sorted last, NaNs count as one value, as in np.unique.
    j = np.flatnonzero((slot[1:] == slot[:-1]) & (value[1:] != value[:-1])
                       & ~np.isnan(value[:-1]))
    if len(j) == 0:
        return None
    lo, hi = value[j], value[j + 1]
    thresholds = (lo + hi) / 2.0
    below = np.cumsum(items, axis=0)
    first = np.searchsorted(slot, slot[j])
    left = below[j] - below[first] + items[first]
    # A midpoint can round onto lo (adjacent doubles), or overflow past hi.
    for i in np.flatnonzero(~((lo < thresholds) & (thresholds <= hi))):
        left[i] = items[(slot == slot[j[i]]) & (value < thresholds[i])].sum(axis=0)
    n_left = left.sum(axis=1)
    n_right = n - n_left
    impurity = (n_left * _gini(left, n_left)
                + n_right * _gini(counts - left, n_right)) / n
    best = 0
    while True:
        later = impurity[best + 1:] < impurity[best] - 1e-12
        if not later.any():
            break
        best += 1 + int(later.argmax())
    f, threshold = int(feats[slot[j[best]]]), float(thresholds[best])
    return f, threshold, XT[f][indices] < threshold


def _grow_tree(tree: DecisionTree, XT: CsrMatrix, y_idx, n_classes, indices,
               depth, n_feats, rng) -> None:
    """Append the subtree of the rows ``indices`` to ``tree``, in pre-order."""
    counts = np.bincount(y_idx[indices], minlength=n_classes)
    majority = int(counts.argmax())  # argmax ties fall to the lowest class index
    if depth >= tree.max_depth or counts.max() == counts.sum():
        tree.add(label=majority)
        return

    dim = XT.shape[0]
    feats = rng.permutation(dim)[:n_feats] if n_feats < dim else np.arange(dim)
    # A helper, so that the search's arrays are freed before the recursion.
    split = _best_split(XT, y_idx, counts, indices, np.sort(feats))
    if split is None:
        tree.add(label=majority)
        return
    f, threshold, mask = split
    node = tree.add(feature=f, threshold=threshold)
    _grow_tree(tree, XT, y_idx, n_classes, indices[mask], depth + 1, n_feats, rng)
    tree.right[node] = len(tree.feature)
    _grow_tree(tree, XT, y_idx, n_classes, indices[~mask], depth + 1, n_feats, rng)


def train_random_forest(X, y, n_trees: int = 100, max_depth: int = 16,
                        feature_frac: float | None = None, seed: int = 0,
                        bootstrap: bool = True) -> TrainedModel:
    """Bagged Gini trees with a per-node random feature subset.

    ``X`` (ndarray or CsrMatrix) is copied once into columns of its non-zero
    entries; it is never densified. Each node reads only the entries of its
    sampled columns that fall in its rows (bootstrap copies counted), sorts
    them by column and value with each column's zeros as one more value, and
    scores every candidate threshold at once from cumulative class counts.
    The trees are those of an exhaustive threshold scan. feature_frac=None uses the sqrt(dim)/dim rule. ``bootstrap=False`` is a
    test hook that trains every tree on the full sample.
    """
    XT = _transpose(X)
    y_idx, class_names = _encode_labels(y)
    dim, n = XT.shape
    if n != len(y_idx) or n < 1:
        raise DimensionMismatch(f"{n} vectors vs {len(y_idx)} labels")
    if feature_frac is None:
        n_feats = max(1, int(np.ceil(np.sqrt(dim))))
        feature_frac = n_feats / dim
    else:
        if not 0 < feature_frac <= 1:
            raise ValueError(f"feature_frac must be in (0,1], got {feature_frac}")
        n_feats = max(1, int(np.ceil(feature_frac * dim)))
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree = DecisionTree(max_depth)
        _grow_tree(tree, XT, y_idx, len(class_names), np.asarray(sample), 0,
                   n_feats, rng)
        trees.append(tree)
    return TrainedModel(
        kind="random_forest", classes=class_names, dim=dim, train_seed=seed,
        hyperparams={"n_trees": n_trees, "max_depth": max_depth,
                     "feature_frac": feature_frac},
        trees=trees,
    )


# ---------------------------------------------------------------------------
# Prediction and voting


def _row_entries(x, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the stored (non-zero) entries of one row: a
    dense vector, a one-row ndarray or a one-row CsrMatrix."""
    if isinstance(x, CsrMatrix):
        shape, cols, vals = x.shape, x.indices, x.data
    else:
        vec = np.asarray(x, dtype=float)
        shape = vec.shape if vec.ndim == 2 else (1,) + vec.shape
        vec = vec.reshape(-1)
        cols = np.flatnonzero(vec)
        vals = vec[cols]
    if shape != (1, dim):
        raise DimensionMismatch(f"row of shape {shape} for model dim {dim}")
    return cols, vals


def predict(model: TrainedModel, x) -> tuple[str, dict[str, float]]:
    """Argmax over class scores; ties fall to the first class in model order.

    ``x`` is one row (see ``_row_entries``), of which only the stored entries
    are read: trees look up features in a dict of them, and linear models
    take the dot product over them alone.
    """
    cols, vals = _row_entries(x, model.dim)
    if model.kind == "random_forest":
        row = dict(zip(cols.tolist(), vals.tolist()))
        votes = [0] * len(model.classes)
        for tree in model.trees:
            feature, threshold, right = tree.feature, tree.threshold, tree.right
            i = 0
            while (f := feature[i]) >= 0:
                i = i + 1 if (row[f] if f in row else 0.0) < threshold[i] else right[i]
            votes[tree.label[i]] += 1
        raw = [v / len(model.trees) for v in votes]
        best = max(range(len(raw)), key=raw.__getitem__)  # first max, as np.argmax
    elif model.kind in ("logreg", "linear_svm"):
        raw = model.weights.take(cols, axis=1) @ vals + model.bias
        if model.kind == "logreg":
            raw -= raw.max()
            p = np.exp(raw)
            raw = p / p.sum()
        best = int(np.argmax(raw))
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    return model.classes[best], {c: float(s) for c, s in zip(model.classes, raw)}


def majority_vote(predictions, tie_break: str = "MajorityClassPrior") -> str:
    """Mode of the votes; ties resolved per tie_break.

    ClassOrder: first label in canonical order among the tied.
    MajorityClassPrior: NotHope wins any tie it takes part in (class skew
    prior); other ties fall back to canonical order.
    """
    preds = [str(p.value) if isinstance(p, Label) else str(p) for p in predictions]
    if not preds:
        raise EmptyPredictions("no votes")
    counts: dict[str, int] = {}
    for p in preds:
        counts[p] = counts.get(p, 0) + 1
    top = max(counts.values())
    tied = [p for p, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0]
    if tie_break == "MajorityClassPrior" and Label.NOT_HOPE.value in tied:
        return Label.NOT_HOPE.value
    canonical = [c.value for c in CLASS_ORDER]
    return min(tied, key=lambda p: (canonical.index(p) if p in canonical else
                                    len(canonical), p))


_TRAINERS = {
    "logreg": train_logreg,
    "linear_svm": train_linear_svm,
    "random_forest": train_random_forest,
}


def train_ensemble(X, y, kind: str, k: int, base_seed: int, fraction_train: float,
                   **trainer_params):
    """Train k members of ``kind`` (a key of _TRAINERS), member i on a fresh
    shuffled split of the rows with seed ``base_seed + i``.

    ``X`` is the feature matrix (ndarray or CsrMatrix) and ``y`` the labels,
    row-aligned. Each member trains on its split's rows taken from ``X``.
    Returns (models, member_records) where each record holds the member's
    split seed and validation row positions.
    """
    if k % 2 == 0:
        warnings.warn(f"even ensemble size {k}: ties will fall to the tie-break rule")
    trainer = _TRAINERS[kind]
    models, records = [], []
    for i in range(k):
        member_seed = base_seed + i
        train, validation = split_positions(len(y), member_seed, fraction_train)
        model = trainer(X[train], [y[j] for j in train], seed=member_seed,
                        **trainer_params)
        models.append(model)
        records.append({"seed": member_seed, "validation_rows": validation})
    return models, records


def ensemble_predict(models, x, tie_break: str = "MajorityClassPrior") -> str:
    return majority_vote([predict(m, x)[0] for m in models], tie_break)


def save_model(model: TrainedModel, path) -> None:
    """Versioned header plus decimal-text parameter payload: ``w`` and ``b``
    lines for a linear model; for a forest, a ``tree`` line per tree and then
    its nodes in pre-order, ``n -1 <label>`` for a leaf and
    ``n <feature> <threshold>`` for an inner node."""
    with open(path, "w", encoding="utf-8") as fh:
        hp = " ".join(f"{k}={v!r}" for k, v in sorted(model.hyperparams.items()))
        fh.write(
            f"# {MODEL_VERSION}\tkind={model.kind}\tdim={model.dim}\t"
            f"classes={','.join(model.classes)}\tseed={model.train_seed}\t{hp}\n"
        )
        if model.kind in ("logreg", "linear_svm"):
            for row in model.weights:
                fh.write("w " + " ".join(repr(float(v)) for v in row) + "\n")
            fh.write("b " + " ".join(repr(float(v)) for v in model.bias) + "\n")
        else:
            for tree in model.trees:
                fh.write(f"tree {tree.max_depth}\n")
                for f, threshold, label in zip(tree.feature, tree.threshold, tree.label):
                    fh.write(f"n -1 {label}\n" if f < 0 else f"n {f} {threshold!r}\n")


def load_model(path) -> TrainedModel:
    """Read a file written by ``save_model``. A damaged file raises
    MalformedFile naming the line at fault."""
    lines = utf8_lines(path)
    try:
        model = _parse_model_header(next(lines, (1, ""))[1])
    except ValueError as e:
        raise MalformedFile(path, 1, e) from None
    body = [(n, ln.split()) for n, ln in lines if ln.strip()]
    end = body[-1][0] + 1 if body else 2  # the line after the last
    read = _read_trees if model.kind == "random_forest" else _read_linear
    read(model, body, path, end)
    return model


def _parse_model_header(header: str) -> TrainedModel:
    if not header.startswith(f"# {MODEL_VERSION}\t"):
        raise ValueError(f"not a {MODEL_VERSION} header")
    fields = header.split("\t")
    meta = dict(part.split("=", 1) for part in fields[1:-1])
    if meta.keys() != {"kind", "dim", "classes", "seed"} or meta["kind"] not in _TRAINERS:
        raise ValueError(f"bad {MODEL_VERSION} header fields")
    hp = dict(chunk.split("=", 1) for chunk in fields[-1].split())
    return TrainedModel(
        kind=meta["kind"], classes=meta["classes"].split(","), dim=int(meta["dim"]),
        train_seed=int(meta["seed"]),
        hyperparams={k: _parse_number(v) for k, v in hp.items()},
    )


def _read_linear(model: TrainedModel, body, path, end) -> None:
    """Set a linear model's weights and bias from its numbered lines: one
    ``w`` line per class, then one ``b`` line."""
    rows, bias = [], None
    for line_no, (tag, *values) in body:
        try:
            if tag not in ("w", "b") or bias is not None:
                raise ValueError(f"unexpected {tag!r} line")
            want = model.dim if tag == "w" else len(model.classes)
            if len(values) != want:
                raise ValueError(f"{len(values)} values on a {tag} line, expected {want}")
            if tag == "w":
                rows.append([float(v) for v in values])
            elif len(rows) != len(model.classes):
                raise ValueError(f"{len(rows)} w lines for {len(model.classes)} classes")
            else:
                bias = [float(v) for v in values]
        except ValueError as e:
            raise MalformedFile(path, line_no, e) from None
    if bias is None:
        raise MalformedFile(path, end, "no b line")
    model.weights, model.bias = np.array(rows), np.array(bias)


def _read_trees(model: TrainedModel, body, path, end) -> None:
    """Append a forest's trees from its numbered lines: a ``tree`` line, then
    the tree's nodes in pre-order (see ``save_model``)."""
    tree = None  # the tree being read, until its last leaf
    open_left = []  # its inner nodes whose left subtree is being read
    for line_no, (tag, *values) in body:
        try:
            if tag not in ("tree", "n") or len(values) != (1 if tag == "tree" else 2):
                raise ValueError(f"malformed line {' '.join([tag, *values])!r}")
            if tag == "tree":
                if tree is not None:
                    raise ValueError(f"tree {len(model.trees)} ends before its last leaf")
                tree = DecisionTree(int(values[0]))
                model.trees.append(tree)
            elif tree is None:
                raise ValueError("node line outside a tree")
            elif values[0] == "-1":
                label = int(values[1])
                if not 0 <= label < len(model.classes):
                    raise ValueError(f"leaf label {label} is not a class index")
                tree.add(label=label)
                if open_left:
                    tree.right[open_left.pop()] = len(tree.feature)
                else:
                    tree = None
            else:
                f = int(values[0])
                if not 0 <= f < model.dim:
                    raise ValueError(f"feature {f} out of range for dim {model.dim}")
                open_left.append(tree.add(feature=f, threshold=float(values[1])))
        except ValueError as e:
            raise MalformedFile(path, line_no, e) from None
    if tree is not None:
        raise MalformedFile(path, end, f"tree {len(model.trees)} ends before its last leaf")
    n_trees = model.hyperparams.get("n_trees", len(model.trees))
    if not model.trees or len(model.trees) != n_trees:
        raise MalformedFile(path, end, f"{len(model.trees)} trees for n_trees={n_trees}")


def _parse_number(text: str) -> int | float:
    # save_model writes repr(): an int has no point or exponent, a float does.
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_external_predictions(paths, n_rows: int):
    """Read k prediction files (one label alias per line) into a k x n matrix."""
    matrix = []
    for path in paths:
        labels = []
        for line_no, line in utf8_lines(path):
            line = line.strip()
            if not line:
                continue
            labels.append(parse_label(line, line_no).value)
        if len(labels) != n_rows:
            raise RowCountMismatch(f"{path}: {len(labels)} rows, expected {n_rows}")
        matrix.append(labels)
    return matrix

"""Classical classifiers and the majority-voting ensemble.

Three trainers (softmax regression, one-vs-rest linear SVM, random forest),
a shared predict, majority voting with a documented tie-break, ensemble
training over reshuffled splits, and ingestion of externally produced
prediction files. All training is deterministic given its seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import Label, finite_numbers, parse_label, split_positions, utf8_lines
from .errors import ConfigError, HopedetectError, MalformedFile
from .features import CsrMatrix

MODEL_VERSION = "model-v2"

# The tie-break rules of majority_vote.
TIE_BREAKS = ("MajorityClassPrior", "ClassOrder")


@dataclass
class DecisionTree:
    """One tree as parallel lists, its nodes in level order: the root, then
    each depth's nodes left to right. Node i is a leaf voting for class
    ``label[i]`` when ``feature[i]`` is -1. Otherwise a row with
    ``x[feature[i]] < threshold[i]`` goes to node ``child[i]`` and any other
    row to the node after it: the children of the k-th inner node are nodes
    2k + 1 and 2k + 2."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    label: list[int] = field(default_factory=list)

    @cached_property
    def child(self) -> list[int]:
        """The left child of each inner node; meaningless at a leaf."""
        return (2 * np.cumsum(np.asarray(self.feature) >= 0) - 1).tolist()


@dataclass(frozen=True)
class ZeroPaths:
    """A forest's trees on the path of a row that stores no entry, every
    ``x[f]`` 0.0: tree t ends in a leaf voting ``label[t]``, and ``votes``
    counts those votes per class. Any other row follows that path up to the
    first node that tests a feature it stores; ``first_test[f]`` holds
    (t, node) for each tree t whose zero path tests feature f, at the first
    such node. A tree that none of a row's features reach votes ``label[t]``.
    """

    label: list[int]
    votes: list[int]
    first_test: dict[int, list[tuple[int, int]]]

    @classmethod
    def of(cls, trees: list[DecisionTree], n_classes: int) -> ZeroPaths:
        label, votes, first_test = [], [0] * n_classes, {}
        for t, tree in enumerate(trees):
            tested, i = set(), 0
            while (f := tree.feature[i]) >= 0:
                if f not in tested:
                    tested.add(f)
                    first_test.setdefault(f, []).append((t, i))
                i = tree.child[i] + (not 0.0 < tree.threshold[i])
            label.append(tree.label[i])
            votes[tree.label[i]] += 1
        return cls(label, votes, first_test)


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

    @cached_property
    def zero_paths(self) -> ZeroPaths:
        """The forest's zero paths, indexed on first use."""
        return ZeroPaths.of(self.trees, len(self.classes))


def _encode_labels(y):
    classes = sorted(set(y))
    lut = {c: i for i, c in enumerate(classes)}
    return np.array([lut[v] for v in y]), classes


def _check_training_input(X: np.ndarray, y_idx: np.ndarray, n_classes: int):
    if X.shape[0] != len(y_idx) or X.shape[0] < 2:
        raise HopedetectError(f"{X.shape[0]} vectors vs {len(y_idx)} labels (need >= 2 rows)")
    if n_classes < 2:
        raise HopedetectError("training data contains a single class")


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


def train_linear_svm(X, y, lr: float = 0.1, epochs: int = 500, C: float = 1.0,
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
    stored (non-zero) entries of column j of X, at their rows of X, in
    ascending order of value (NaN last), equal values in row order."""
    if isinstance(X, CsrMatrix):
        n_rows, dim = X.shape
        order = np.lexsort((X.data, X.indices))
        rows = X._row_of[order]
        vals = X.data[order]
        indptr = np.searchsorted(X.indices[order], np.arange(dim + 1))
        return CsrMatrix(vals, rows, indptr, n_rows)
    # A column at a time, into arrays of their own, so that the sort's
    # arrays stay the size of one column.
    AT = np.asarray(X, dtype=float).T
    n_rows = AT.shape[1]
    indptr = np.concatenate(([0], np.cumsum((AT != 0).sum(axis=1))))
    rows, vals = np.empty(indptr[-1], dtype=np.intp), np.empty(indptr[-1])
    for column, lo, hi in zip(AT, indptr, indptr[1:]):
        stored = np.flatnonzero(column)
        rows[lo:hi] = stored[np.argsort(column[stored], kind="stable")]
        vals[lo:hi] = column[rows[lo:hi]]
    return CsrMatrix(vals, rows, indptr, n_rows)


# The most stored entries that one batch of a level's split search (or of
# its routing) gathers: a node whose sampled columns hold more is searched
# alone. It bounds the search's memory and does not change the trees.
_SEARCH_ENTRIES = 1 << 15


def _gini(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity of each column of class counts (classes x items); 0 for
    an empty one."""
    p = counts / np.maximum(totals, 1)
    return np.where(totals > 0, 1.0 - (p * p).sum(axis=0), 0.0)


def _batches(sizes: np.ndarray, budget: int):
    """Slices of consecutive items whose sizes add up to at most ``budget``,
    each holding at least one item."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + budget, side="right")))
        yield slice(start, stop)
        start = stop


def _node_entries(XT: CsrMatrix, node_of, tree, node, cols):
    """The stored entries of column ``cols[i]`` whose rows are in node
    ``node[i]`` of tree ``tree[i]`` (see ``_grow_trees``), column after
    column: their positions in XT, their i, and their keys ``t * n + row``
    into the trees' row maps."""
    starts = XT.indptr[cols]
    lengths = XT.indptr[cols + 1] - starts
    ends = np.cumsum(lengths)
    at = np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])
    which = np.repeat(np.arange(len(cols)), lengths)
    key = tree[which] * node_of.shape[1] + XT.indices[at]
    hit = node_of.ravel()[key] == node[which]
    return at[hit], which[hit], key[hit]


def _best_split(XT: CsrMatrix, y_idx, copies, node_of, tree, node, counts, feats):
    """The split ``x[f] < threshold`` with the lowest weighted Gini impurity
    of each node ``node[i]`` of tree ``tree[i]``, whose rows hold the class
    counts ``counts[i]``, searched over the columns ``feats[i]`` (ascending).
    Returns (found, f, threshold, class counts of the left rows), a row per
    node; a node with no candidate is not found.

    Candidates are the midpoints between distinct adjacent values of each
    feature, thresholds ascending within a feature, and the first candidate
    whose impurity is within 1e-12 of the node's lowest wins. The midpoint
    of lo and hi is ``(lo + hi) / 2``, or ``lo / 2 + hi / 2`` where that sum
    is not finite. Only stored entries are read: the zeros of a column at a
    node are one item, holding their class counts. Rows count once per
    bootstrap copy (``copies``). The nodes' searches share arrays but not
    results, so a node's split does not depend on the nodes beside it.
    """
    n_nodes, m = feats.shape
    n_classes = counts.shape[1]
    # Every (node, column) pair is a segment, i * m + j for column feats[i, j].
    at, seg, key = _node_entries(XT, node_of, np.repeat(tree, m),
                                 np.repeat(node, m), feats.ravel())
    value = XT.data[at]
    weight, cls = copies.ravel()[key], y_idx[XT.indices[at]]
    # Class counts (classes x items) of each stored entry, and of each
    # segment's zeros: the node's counts less those of the column's entries.
    items = np.zeros((n_classes, len(at)), dtype=np.int64)
    items[cls, np.arange(len(at))] = weight
    in_column = np.bincount(seg * n_classes + cls, weights=weight,
                            minlength=n_nodes * m * n_classes)
    zeros = (np.repeat(counts, m, axis=0)
             - in_column.astype(np.int64).reshape(n_nodes * m, n_classes))
    with_zeros = np.flatnonzero(zeros.any(axis=1))
    # A segment's entries come in ascending value (see _transpose). Its
    # zeros go in as one item after its negative values, so that the items
    # are sorted by node, then column, then value.
    place = np.searchsorted(2 * seg + ~(value < 0), 2 * with_zeros + 1)
    seg = np.insert(seg, place, with_zeros)
    value = np.insert(value, place, 0.0)
    items = np.insert(items, place, zeros[with_zeros].T, axis=1)
    # Sorted last, NaNs count as one value, as in np.unique.
    j = np.flatnonzero((seg[1:] == seg[:-1]) & (value[1:] != value[:-1])
                       & ~np.isnan(value[:-1]))
    found = np.zeros(n_nodes, dtype=bool)
    f, threshold = np.full(n_nodes, -1), np.zeros(n_nodes)
    left = np.zeros((n_nodes, n_classes), dtype=np.int64)
    if len(j) == 0:
        return found, f, threshold, left
    lo, hi = value[j], value[j + 1]
    with np.errstate(over="ignore"):
        thresholds = (lo + hi) / 2.0
    over = ~np.isfinite(thresholds)
    thresholds[over] = lo[over] / 2.0 + hi[over] / 2.0
    below = np.cumsum(items, axis=1)
    first = np.searchsorted(seg, seg[j])
    left_of = below[:, j] - below[:, first] + items[:, first]
    # A midpoint can round onto lo (adjacent doubles).
    for i in np.flatnonzero(~((lo < thresholds) & (thresholds <= hi))):
        in_left = (seg == seg[j[i]]) & (value < thresholds[i])
        left_of[:, i] = items[:, in_left].sum(axis=1)
    at_node = seg[j] // m
    n = counts.sum(axis=1)[at_node]
    n_left = left_of.sum(axis=0)
    n_right = n - n_left
    impurity = (n_left * _gini(left_of, n_left)
                + n_right * _gini(counts[at_node].T - left_of, n_right)) / n
    lowest = np.full(n_nodes, np.inf)
    np.minimum.at(lowest, at_node, impurity)
    near = np.flatnonzero(impurity <= lowest[at_node] + 1e-12)
    best = near[np.concatenate(([True], np.diff(at_node[near]) != 0))]
    won = at_node[best]
    found[won] = True
    f[won] = feats.ravel()[seg[j[best]]]
    threshold[won] = thresholds[best]
    left[won] = left_of[:, best].T
    return found, f, threshold, left


def _route(XT: CsrMatrix, node_of, tree, feature, threshold):
    """The row maps of the next level: the rows of the level's i-th inner
    node (``feature >= 0``) go to node 2i where ``x[feature] < threshold``,
    else to node 2i + 1; every other row goes to -1."""
    inner = np.flatnonzero(feature >= 0)
    child = np.full(len(feature) + 1, -1, dtype=np.int32)  # the last for -1
    child[inner] = 2 * np.arange(len(inner)) + ~(0.0 < threshold[inner])
    routed = child[node_of]
    for part in _batches(np.diff(XT.indptr)[feature[inner]], _SEARCH_ENTRIES):
        k = inner[part]
        at, which, key = _node_entries(XT, node_of, tree[k], k, feature[k])
        goes_right = ~(XT.data[at] < threshold[k][which])
        routed.ravel()[key] = 2 * (part.start + which) + goes_right
    return routed


def _grow_trees(XT: CsrMatrix, y_idx, n_classes, n_trees, max_depth, n_feats,
                seed, bootstrap) -> list[DecisionTree]:
    """Grow every tree one depth level at a time; see train_random_forest.

    A level is its nodes in tree order, each tree's left to right. The row
    maps ``node_of[t, r]`` name the node of the level that holds row r of
    tree t, or -1 once r is in a leaf or outside t's sample, and ``copies[t,
    r]`` counts r in t's sample."""
    dim, n = XT.shape
    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    copies = np.empty((n_trees, n), dtype=np.min_scalar_type(n))  # counts <= n
    counts = np.empty((n_trees, n_classes), dtype=np.int64)
    for t, rng in enumerate(rngs):
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        copies[t] = np.bincount(sample, minlength=n)
        counts[t] = np.bincount(y_idx[sample], minlength=n_classes)
    node_of = np.where(copies > 0, np.arange(n_trees, dtype=np.int32)[:, None],
                       np.int32(-1))
    tree = np.arange(n_trees)
    levels = []
    for depth in range(max_depth + 1):
        feature, threshold = np.full(len(tree), -1), np.zeros(len(tree))
        # argmax ties fall to the lowest class index.
        label = counts.argmax(axis=1)
        left = np.zeros((len(tree), n_classes), dtype=np.int64)
        mixed = np.flatnonzero(counts.max(axis=1) < counts.sum(axis=1))
        if depth < max_depth and len(mixed):
            feats = np.sort([rngs[t].choice(dim, n_feats, replace=False)
                             for t in tree[mixed]], axis=1)
            sizes = np.diff(XT.indptr)[feats].sum(axis=1)
            for part in _batches(sizes, _SEARCH_ENTRIES):
                k = mixed[part]
                found, f, thr, lft = _best_split(XT, y_idx, copies, node_of, tree[k],
                                                 k, counts[k], feats[part])
                feature[k[found]], threshold[k[found]] = f[found], thr[found]
                left[k[found]] = lft[found]
        inner = feature >= 0
        label[inner] = -1
        levels.append((tree, feature, threshold, label))
        if not inner.any():
            break
        node_of = _route(XT, node_of, tree, feature, threshold)
        tree = np.repeat(tree[inner], 2)
        counts = np.stack((left[inner], counts[inner] - left[inner]),
                          axis=1).reshape(-1, n_classes)
    # Each tree's nodes, level after level: a stable sort by tree.
    tree, feature, threshold, label = map(np.concatenate, zip(*levels))
    order = np.argsort(tree, kind="stable")
    ends = np.cumsum(np.bincount(tree, minlength=n_trees)).tolist()
    columns = [column[order].tolist() for column in (feature, threshold, label)]
    return [DecisionTree(*(column[lo:hi] for column in columns))
            for lo, hi in zip([0] + ends, ends)]


def train_random_forest(X, y, n_trees: int = 100, max_depth: int = 16,
                        feature_frac: float | None = None, seed: int = 0,
                        bootstrap: bool = True) -> TrainedModel:
    """Bagged Gini trees with a per-node random feature subset, grown one
    depth level at a time.

    ``X`` (ndarray or CsrMatrix) is copied once into columns of its non-zero
    entries; it is never densified. Tree t draws from its own generator,
    ``default_rng([seed, t])``: first its bootstrap sample, then the feature
    subset of each of its nodes that is neither pure nor at ``max_depth``,
    level by level and left to right, with ``choice(dim, n_feats,
    replace=False)``, whose cost grows with n_feats, not dim. So a tree
    depends neither on the other trees nor on how nodes are batched.
    Every tree grows at once, a level at a time. The level's nodes are
    searched in batches whose sampled columns hold at most
    ``_SEARCH_ENTRIES`` stored entries (see ``_best_split``): a batch
    gathers the entries of its nodes' columns that fall in their rows,
    which come in node, column and value order since each column is
    sorted by value once, puts in each column's zeros as one more value,
    and scores every candidate threshold at once from cumulative class
    counts. One pass then sends each row of the level to its child. The
    trees are those of an exhaustive threshold scan.
    ``feature_frac=None`` uses the sqrt(dim)/dim rule. ``bootstrap=False``
    is a test hook that trains every tree on the full sample.
    """
    XT = _transpose(X)
    y_idx, class_names = _encode_labels(y)
    dim, n = XT.shape
    if n != len(y_idx) or n < 1:
        raise HopedetectError(f"{n} vectors vs {len(y_idx)} labels")
    if feature_frac is None:
        n_feats = max(1, int(np.ceil(np.sqrt(dim))))
        feature_frac = n_feats / dim
    else:
        if not 0 < feature_frac <= 1:
            raise ValueError(f"feature_frac must be in (0,1], got {feature_frac}")
        n_feats = max(1, int(np.ceil(feature_frac * dim)))
    trees = _grow_trees(XT, y_idx, len(class_names), n_trees, max_depth, n_feats,
                        seed, bootstrap)
    return TrainedModel(
        kind="random_forest", classes=class_names, dim=dim, train_seed=seed,
        hyperparams={"n_trees": n_trees, "max_depth": max_depth,
                     "feature_frac": feature_frac},
        trees=trees,
    )


# ---------------------------------------------------------------------------
# Prediction and voting


def predict(model: TrainedModel, X) -> list[str]:
    """The class of each row of X, a CsrMatrix or a 2-D ndarray of width
    ``model.dim``: the argmax of its class scores, ties falling to the first
    class in model order.

    Only a row's stored entries are read, an ndarray row's being its
    non-zero ones. Linear models take the dot product over them alone. A
    forest starts from the votes of its trees' zero paths (see ``ZeroPaths``)
    and walks only the trees whose zero path tests a stored feature, from the
    first node that does, looking features up in a dict of the entries.
    """
    shape = X.shape if isinstance(X, CsrMatrix) else np.shape(X)
    if len(shape) != 2 or shape[1] != model.dim:
        raise HopedetectError(f"rows of shape {shape} for model dim {model.dim}")
    if not isinstance(X, CsrMatrix):
        A = np.asarray(X, dtype=float)
        rows, cols = np.nonzero(A)
        X = CsrMatrix(A[rows, cols], cols, np.searchsorted(rows, np.arange(len(A) + 1)),
                      model.dim)
    labels = []
    bounds = X.indptr.tolist()
    if model.kind != "random_forest":
        W, b = model.weights, model.bias
        for lo, hi in zip(bounds, bounds[1:]):
            scores = W.take(X.indices[lo:hi], axis=1) @ X.data[lo:hi] + b
            labels.append(model.classes[scores.argmax()])
        return labels
    zero = model.zero_paths
    for lo, hi in zip(bounds, bounds[1:]):
        row = dict(zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()))
        votes = zero.votes.copy()
        # Walk each tree from the first node of its zero path that tests a
        # feature the row stores.
        start = {}
        for f in row.keys() & zero.first_test.keys():  # iterates the smaller
            for t, node in zero.first_test[f]:
                if start.get(t, node) >= node:
                    start[t] = node
        for t, i in start.items():
            tree = model.trees[t]
            feature, threshold, child = tree.feature, tree.threshold, tree.child
            while (f := feature[i]) >= 0:
                i = child[i] + (not row.get(f, 0.0) < threshold[i])
            votes[zero.label[t]] -= 1
            votes[tree.label[i]] += 1
        labels.append(model.classes[votes.index(max(votes))])
    return labels


def majority_vote(predictions, tie_break: str = "MajorityClassPrior") -> str:
    """Mode of the votes; ties resolved per tie_break.

    ClassOrder: the first of the tied in the declaration order of Label.
    MajorityClassPrior: NotHope wins any tie it takes part in (class skew
    prior); other ties fall back to ClassOrder.
    """
    if not predictions:
        raise HopedetectError("no votes")
    counts: dict[str, int] = {}
    for p in predictions:
        counts[p] = counts.get(p, 0) + 1
    top = max(counts.values())
    tied = [p for p, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0]
    if tie_break == "MajorityClassPrior" and Label.NOT_HOPE in tied:
        return Label.NOT_HOPE
    canonical = list(Label)
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
    Returns (models, validation): the members, whose ``train_seed`` is their
    split's seed, and the validation row positions of each member's split.
    """
    if k % 2 == 0:
        warnings.warn(f"even ensemble size {k}: ties will fall to the tie-break rule")
    trainer = _TRAINERS[kind]
    models, validation = [], []
    for seed in range(base_seed, base_seed + k):
        train, held_out = split_positions(len(y), seed, fraction_train)
        models.append(trainer(X[train], [y[j] for j in train], seed=seed,
                              **trainer_params))
        validation.append(held_out)
    return models, validation


def ensemble_predict(models, x, tie_break: str = "MajorityClassPrior") -> str:
    """The members' majority vote on x, a one-row matrix (see ``predict``)."""
    return majority_vote([predict(m, x)[0] for m in models], tie_break)


def save_model(model: TrainedModel, path) -> None:
    """Versioned header plus decimal-text parameter payload: ``w`` and ``b``
    lines for a linear model; for a forest, a ``tree`` line per tree and then
    its nodes in level order (see DecisionTree), ``n -1 <label>`` for a leaf
    and ``n <feature> <threshold>`` for an inner node."""
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
                fh.write("tree\n")
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
                rows.append(finite_numbers(values))
            elif len(rows) != len(model.classes):
                raise ValueError(f"{len(rows)} w lines for {len(model.classes)} classes")
            else:
                bias = finite_numbers(values)
        except ValueError as e:
            raise MalformedFile(path, line_no, e) from None
    if bias is None:
        raise MalformedFile(path, end, "no b line")
    model.weights, model.bias = np.array(rows), np.array(bias)


def _read_trees(model: TrainedModel, body, path, end) -> None:
    """Append a forest's trees from its numbered lines: a ``tree`` line, then
    the tree's nodes in level order (see ``save_model``). A tree ends when
    no node is left unread: the root, and two children per inner node."""
    unread = 0  # nodes of the tree being read
    for line_no, (tag, *values) in body:
        try:
            if tag not in ("tree", "n") or len(values) != (0 if tag == "tree" else 2):
                raise ValueError(f"malformed line {' '.join([tag, *values])!r}")
            if tag == "tree":
                if unread:
                    raise ValueError(f"tree {len(model.trees)} ends before its last leaf")
                model.trees.append(tree := DecisionTree())
                unread = 1
                continue
            if not unread:
                raise ValueError("node line outside a tree")
            f = int(values[0])
            if f == -1:
                label = int(values[1])
                if not 0 <= label < len(model.classes):
                    raise ValueError(f"leaf label {label} is not a class index")
                threshold = 0.0
            elif not 0 <= f < model.dim:
                raise ValueError(f"feature {f} out of range for dim {model.dim}")
            else:
                label, threshold = -1, finite_numbers(values[1:])[0]
                unread += 2
            unread -= 1
            tree.feature.append(f)
            tree.threshold.append(threshold)
            tree.label.append(label)
        except ValueError as e:
            raise MalformedFile(path, line_no, e) from None
    if unread:
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
    """Read k prediction files (one label alias or class name per line) into
    a k x n matrix. A bad label is a MalformedFile naming its file and line."""
    matrix = []
    for path in paths:
        labels = []
        for line_no, line in utf8_lines(path):
            line = line.strip()
            if not line:
                continue
            labels.append(parse_label(line, line_no, path))
        if len(labels) != n_rows:
            raise HopedetectError(f"{path}: {len(labels)} rows, expected {n_rows}")
        matrix.append(labels)
    return matrix

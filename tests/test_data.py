"""Dataset loading, preprocessing transforms, synthesis, and replay."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourier_surrogates import (
    Dataset,
    InputFormatError,
    dbscan,
    evaluate_terms,
    load_csv,
    load_dataset,
    normalize,
    pca,
    replay,
    rescale_targets,
    synth_generate,
    train_test_split,
)
from fourier_surrogates.cli import _write_json

# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


def test_dataset_coercion_and_validation():
    ds = Dataset(X=[[1, 2], [3, 4]], y=[1, 2])
    assert ds.X.dtype == float and ds.y.dtype == float
    assert ds.n_rows == 2 and ds.n_features == 2
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(2))


def test_empty_dataset_is_rejected(tmp_path):
    # zero rows do not survive JSON: "X": [] carries no feature count
    with pytest.raises(ValueError, match="empty dataset"):
        Dataset(X=np.zeros((0, 2)), y=np.zeros(0))
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"X": [], "y": [], "provenance": []}))
    with pytest.raises(ValueError, match="empty dataset"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_happy_path(tmp_path):
    path = _write(tmp_path, "f0,f1,target\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(path, "target")
    assert ds.X.shape == (3, 2)
    np.testing.assert_array_equal(ds.y, [3, 6, 9])
    np.testing.assert_array_equal(ds.X[0], [1, 2])
    entry = ds.provenance[0]
    assert entry["op"] == "load_csv"
    assert entry["feature_columns"] == ["f0", "f1"]
    assert entry["dropped_non_finite_rows"] == 0


def test_load_csv_target_in_middle(tmp_path):
    path = _write(tmp_path, "a,target,b\n1,10,2\n3,20,4\n")
    ds = load_csv(path, "target")
    np.testing.assert_array_equal(ds.y, [10, 20])
    np.testing.assert_array_equal(ds.X, [[1, 2], [3, 4]])


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(InputFormatError, match="target"):
        load_csv(path, "target")


def test_load_csv_non_numeric_cell_location(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,oops\n")
    with pytest.raises(InputFormatError, match=r"row 3.*'b'.*oops"):
        load_csv(path, "a")


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(InputFormatError, match="row 3"):
        load_csv(path, "a")


def test_load_csv_drops_non_finite_rows(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\nnan,4\n5,inf\n7,8\n")
    ds = load_csv(path, "b")
    assert ds.n_rows == 2
    assert ds.provenance[0]["dropped_non_finite_rows"] == 2


def test_load_csv_empty_and_missing(tmp_path):
    with pytest.raises(InputFormatError):
        load_csv(_write(tmp_path, ""), "a")
    with pytest.raises(InputFormatError):
        load_csv(_write(tmp_path, "a,b\n", name="h.csv"), "a")
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv", "a")


# ---------------------------------------------------------------------------
# normalize / rescale
# ---------------------------------------------------------------------------


def test_normalize_worked_example():
    ds = Dataset(X=np.array([[2.0, 5.0], [4.0, 5.0], [6.0, 5.0]]), y=np.zeros(3))
    out = normalize(ds)
    np.testing.assert_array_equal(out.X[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(out.X[:, 1], [0.0, 0.0, 0.0])  # constant column
    entry = out.provenance[-1]
    assert entry["feature_min"] == [2.0, 5.0]
    assert entry["feature_max"] == [6.0, 5.0]
    with pytest.raises(ValueError):
        normalize(Dataset(X=np.zeros((0, 1)), y=np.zeros(0)))


def test_rescale_targets_worked_example():
    ds = Dataset(X=np.zeros((3, 1)), y=np.array([0.0, 0.5, 1.0]))
    out = rescale_targets(ds)
    np.testing.assert_allclose(out.y, [-1.0, 0.0, 1.0], atol=1e-15)
    assert out.provenance[-1] == {
        "op": "rescale_targets",
        "target_min": 0.0,
        "target_max": 1.0,
    }
    flat = rescale_targets(Dataset(X=np.zeros((2, 1)), y=np.array([3.0, 3.0])))
    np.testing.assert_array_equal(flat.y, [0.0, 0.0])


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_rank_one_data():
    x1 = np.linspace(0, 1, 20)
    ds = Dataset(X=np.stack([x1, 2 * x1], axis=1), y=np.zeros(20))
    out = pca(ds, k=1)
    entry = out.provenance[-1]
    np.testing.assert_allclose(entry["explained_variance_ratio"], [1.0], atol=1e-12)
    assert out.X.shape == (20, 1)
    assert out.X.min() >= 0.0 and out.X.max() <= 1.0 + 1e-12


def test_pca_full_rank_ratios_sum_to_one():
    X = np.random.default_rng(0).normal(size=(60, 4))
    out = pca(Dataset(X=X, y=np.zeros(60)), k=4)
    ratios = out.provenance[-1]["explained_variance_ratio"]
    assert abs(sum(ratios) - 1.0) <= 1e-10
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_pca_isotropic_sample():
    X = np.random.default_rng(1).normal(size=(10_000, 4))
    out = pca(Dataset(X=X, y=np.zeros(10_000)), k=1)
    ratio = out.provenance[-1]["explained_variance_ratio"][0]
    assert abs(ratio - 0.25) <= 0.05


def test_pca_sign_convention_and_validation():
    X = np.random.default_rng(2).normal(size=(30, 3))
    out = pca(Dataset(X=X, y=np.zeros(30)), k=3)
    comps = np.asarray(out.provenance[-1]["components"])
    for row in comps:
        assert row[np.argmax(np.abs(row))] > 0
    # orthonormal rows
    np.testing.assert_allclose(comps @ comps.T, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        pca(Dataset(X=X, y=np.zeros(30)), k=0)
    with pytest.raises(ValueError):
        pca(Dataset(X=X, y=np.zeros(30)), k=4)
    with pytest.raises(ValueError):
        pca(Dataset(X=np.zeros((1, 2)), y=np.zeros(1)), k=1)


# ---------------------------------------------------------------------------
# DBSCAN with a brute-force reference
# ---------------------------------------------------------------------------


def brute_force_dbscan(X: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Straight-line reference: all-pairs distances, then BFS over cores."""
    n = len(X)
    dist = np.sqrt(np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1))
    neighbors = [set(np.flatnonzero(dist[i] <= eps)) for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [-1] * n
    current = 0
    for start in range(n):
        if not core[start] or labels[start] != -1:
            continue
        labels[start] = current
        frontier = [start]
        while frontier:
            nxt = []
            for j in frontier:
                for m in sorted(neighbors[j]):
                    if labels[m] == -1:
                        labels[m] = current
                        if core[m]:
                            nxt.append(m)
            frontier = nxt
        current += 1
    return np.asarray(labels)


def test_dbscan_two_far_clusters():
    rng = np.random.default_rng(3)
    a = rng.normal(scale=0.3, size=(12, 2))
    b = rng.normal(scale=0.3, size=(12, 2)) + 100.0
    ds = Dataset(X=np.vstack([a, b]), y=np.zeros(24))
    labels, filtered = dbscan(ds, eps=2.0, min_pts=3)
    assert set(labels) == {0, 1}
    assert filtered.n_rows == 24
    assert filtered.provenance[-1]["n_clusters"] == 2
    assert filtered.provenance[-1]["n_noise"] == 0


def test_dbscan_flags_isolated_point():
    cluster = np.random.default_rng(4).normal(scale=0.2, size=(10, 2))
    X = np.vstack([cluster, [[50.0, 50.0]]])
    labels, filtered = dbscan(Dataset(X=X, y=np.zeros(11)), eps=1.0, min_pts=3)
    assert labels[-1] == -1
    assert filtered.n_rows == 10
    assert filtered.provenance[-1]["kept_rows"] == list(range(10))


def test_dbscan_validation():
    ds = Dataset(X=np.zeros((3, 1)), y=np.zeros(3))
    with pytest.raises(ValueError):
        dbscan(ds, eps=0.0, min_pts=1)
    with pytest.raises(ValueError):
        dbscan(ds, eps=1.0, min_pts=0)


def test_dbscan_refuses_to_remove_every_row():
    ds = Dataset(X=[[0.0], [1.0], [2.0]], y=np.zeros(3))
    with pytest.raises(ValueError, match="every row as noise"):
        dbscan(ds, eps=0.5, min_pts=2)


@pytest.mark.parametrize("seed", range(5))
def test_dbscan_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(120, 2))
    ds = Dataset(X=X, y=np.zeros(120))
    labels, _ = dbscan(ds, eps=0.8, min_pts=4)
    np.testing.assert_array_equal(labels, brute_force_dbscan(X, 0.8, 4))


def broadcast_dbscan(X: np.ndarray, eps: float, min_pts: int) -> tuple[np.ndarray, dict]:
    """The earlier dbscan: neighbours from one (n, n, d) difference tensor.

    Returns its labels and the provenance entry it recorded.
    """
    n = len(X)
    sq_dists = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    within = sq_dists <= eps * eps
    neighbor_lists = [np.flatnonzero(within[i]) for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbor_lists]
    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = cluster
        queue = [i]
        while queue:
            j = queue.pop(0)
            for m in neighbor_lists[j]:
                if labels[m] == -1:
                    labels[m] = cluster
                    if core[m]:
                        queue.append(m)
        cluster += 1
    kept = np.flatnonzero(labels >= 0)
    entry = {
        "op": "dbscan", "eps": float(eps), "min_pts": int(min_pts), "kept_rows": kept.tolist(),
        "n_noise": int(n - len(kept)), "n_clusters": cluster,
    }
    return labels, entry


def _oracle_sets(d: int):
    """(X, eps) pairs at dimension d: random, and tie-heavy ones whose distances hit eps."""
    rng = np.random.default_rng(100 + d)
    uniform = rng.uniform(0.0, 3.0, size=(150, d))
    yield uniform, 0.6 * np.sqrt(d)
    grid = rng.integers(0, 4, size=(150, d)).astype(float)  # repeats rows at small d
    yield grid, 1.0
    yield grid, np.sqrt(2.0)
    yield 0.1 * grid, 0.1  # squared distances and eps * eps each round on their own
    yield 0.1 * grid, 0.1 * np.sqrt(2.0)
    yield uniform[rng.integers(0, 20, size=150)], 0.25  # duplicate rows only


@pytest.mark.parametrize("d", range(1, 9))
def test_dbscan_matches_the_broadcast_oracle_bit_for_bit(d):
    for X, eps in _oracle_sets(d):
        ds = Dataset(X=X, y=np.arange(len(X), dtype=float))
        for min_pts in (1, 3, 6):
            want_labels, want_entry = broadcast_dbscan(X, eps, min_pts)
            if want_entry["n_noise"] == len(X):
                with pytest.raises(ValueError, match="every row as noise"):
                    dbscan(ds, eps, min_pts)
                continue
            labels, out = dbscan(ds, eps, min_pts)
            np.testing.assert_array_equal(labels, want_labels)
            assert out.provenance[-1] == want_entry


def test_dbscan_holds_no_pairwise_array():
    X = np.random.default_rng(0).random((2000, 4))
    ds = Dataset(X=X, y=np.zeros(2000))
    tracemalloc.start()
    try:
        dbscan(ds, eps=0.15, min_pts=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, n, d) float tensor would be 128 MB, the (n, n) distances 32 MB
    assert peak < 8_000_000


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def test_synth_trig_poly_ground_truth_is_exact():
    ds = synth_generate(d=3, size=40, kind="trig-poly", seed=11, noise_sd=0.0)
    gt = ds.provenance[0]["ground_truth"]
    freqs = [tuple(t["freq"]) for t in gt["terms"]]
    a = np.array([t["a"] for t in gt["terms"]])
    b = np.array([t["b"] for t in gt["terms"]])
    recomputed = evaluate_terms(ds.X, gt["intercept"], freqs, a, b)
    np.testing.assert_array_equal(recomputed, ds.y)
    # the span is rescaled through the coefficients, exact up to one ulp
    assert ds.y.min() >= -1.0 - 1e-12 and ds.y.max() <= 1.0 + 1e-12
    for f in freqs:
        assert all(abs(v) <= 2 for v in f)


def test_synth_determinism_and_noise():
    a = synth_generate(d=2, size=25, seed=5, noise_sd=0.1)
    b = synth_generate(d=2, size=25, seed=5, noise_sd=0.1)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    clean = synth_generate(d=2, size=25, seed=5, noise_sd=0.0)
    np.testing.assert_array_equal(a.X, clean.X)
    assert not np.array_equal(a.y, clean.y)
    assert np.std(a.y - clean.y) < 0.3


def test_synth_single_row_and_validation():
    ds = synth_generate(d=2, size=1, seed=0)
    assert ds.X.shape == (1, 2)
    with pytest.raises(ValueError):
        synth_generate(d=0, size=5)
    with pytest.raises(ValueError):
        synth_generate(d=2, size=5, kind="other")


def test_synth_circuit_kind_stays_in_observable_range():
    ds = synth_generate(d=4, size=30, kind="circuit", seed=9)
    assert ds.y.min() >= -1.0 and ds.y.max() <= 1.0
    info = ds.provenance[0]["circuit"]
    assert info["config"]["n_qubits"] == 4
    assert info["config"]["n_layers"] == 2


# ---------------------------------------------------------------------------
# split and replay
# ---------------------------------------------------------------------------


def test_split_is_disjoint_exhaustive_deterministic():
    ds = synth_generate(d=2, size=30, seed=1)
    tr, te = train_test_split(ds, 0.7, seed=2)
    assert tr.n_rows == 21 and te.n_rows == 9
    idx_tr = tr.provenance[-1]["indices"]
    idx_te = te.provenance[-1]["indices"]
    assert sorted(idx_tr + idx_te) == list(range(30))
    tr2, _ = train_test_split(ds, 0.7, seed=2)
    np.testing.assert_array_equal(tr.X, tr2.X)
    with pytest.raises(ValueError):
        train_test_split(ds, 0.0)
    with pytest.raises(ValueError):
        train_test_split(Dataset(X=np.zeros((2, 1)), y=np.zeros(2)), 0.1)


def test_replay_reproduces_chain_bit_for_bit(tmp_path):
    raw = synth_generate(d=3, size=50, seed=7, noise_sd=0.05)
    step = normalize(raw)
    step = pca(step, k=2)
    _, step = dbscan(step, eps=1.5, min_pts=2)
    step = rescale_targets(step)
    train_ds, _ = train_test_split(step, 0.6, seed=3)

    again = replay(raw, train_ds.provenance)
    np.testing.assert_array_equal(again.X, train_ds.X)
    np.testing.assert_array_equal(again.y, train_ds.y)

    # survives a disk round trip of the processed artifact
    path = tmp_path / "train.json"
    path.write_text(json.dumps(train_ds.to_json_dict()))
    loaded = load_dataset(path)
    replayed = replay(raw, loaded.provenance)
    np.testing.assert_array_equal(replayed.X, loaded.X)
    np.testing.assert_array_equal(replayed.y, loaded.y)


_STEPS = st.lists(
    st.one_of(
        st.just(("normalize",)),
        st.tuples(st.just("pca"), st.integers(1, 3)),
        st.tuples(st.just("dbscan"), st.floats(0.05, 1.5), st.integers(1, 4)),
        st.just(("rescale_targets",)),
        st.tuples(st.just("split"), st.floats(0.2, 0.8), st.integers(0, 2**16), st.booleans()),
    ),
    max_size=6,
)


def _apply_step(ds: Dataset, step) -> Dataset:
    op = step[0]
    if op == "normalize":
        return normalize(ds)
    if op == "pca":
        return pca(ds, k=min(step[1], ds.n_features))
    if op == "dbscan":
        try:
            return dbscan(ds, eps=step[1], min_pts=step[2])[1]
        except ValueError as exc:  # the step would leave no row
            assert "every row as noise" in str(exc)
            return ds
    if op == "rescale_targets":
        return rescale_targets(ds)
    train_ds, test_ds = train_test_split(ds, step[1], seed=step[2])
    return train_ds if step[3] else test_ds


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3), size=st.integers(4, 40), seed=st.integers(0, 2**32 - 1), steps=_STEPS
)
def test_replay_reproduces_drawn_chains_bit_for_bit(d, size, seed, steps):
    raw = synth_generate(d=d, size=size, seed=seed, noise_sd=0.05)
    ds = raw
    for step in steps:
        if ds.n_rows >= 4:  # enough rows for PCA and for a split with two non-empty sides
            ds = _apply_step(ds, step)
    again = replay(raw, ds.provenance)
    np.testing.assert_array_equal(again.X, ds.X)
    np.testing.assert_array_equal(again.y, ds.y)
    assert again.provenance == ds.provenance

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "processed.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ds.to_json_dict(), fh)
        loaded = load_dataset(path)
    replayed = replay(raw, loaded.provenance)
    np.testing.assert_array_equal(replayed.X, ds.X)
    np.testing.assert_array_equal(replayed.y, ds.y)
    np.testing.assert_array_equal(loaded.X, ds.X)


def test_replay_rejects_unknown_ops():
    raw = Dataset(X=np.zeros((2, 1)), y=np.zeros(2))
    with pytest.raises(ValueError):
        replay(raw, ({"op": "mystery"},))


def test_save_load_round_trip(tmp_path):
    ds = synth_generate(d=2, size=10, seed=3, noise_sd=0.01)
    path = tmp_path / "ds.json"
    _write_json(path, ds.to_json_dict())  # how the CLI writes datasets
    text = path.read_text()
    assert text.endswith("\n")
    again = load_dataset(path)
    np.testing.assert_array_equal(again.X, ds.X)
    np.testing.assert_array_equal(again.y, ds.y)
    assert again.provenance == ds.provenance

"""Deterministic synthetic imbalanced dataset for tests and demos.

The majority class is a dense Gaussian core in positive feature space;
the minority class is scattered thinly on a spherical shell around it.
A plain KNN under-predicts the sparse minority until its region is
densified, which is the regime this library is meant to improve.
"""

import numpy as np

from . import data

N_FEATURES = 8
SHELL_RADIUS = (3.2, 4.8)  # the minority shell's inner and outer radius about the core's centre


def make_imbalanced_dataset(n_rows=2000, minority_fraction=0.10, seed=7):
    """Returns (X, y), N_FEATURES columns, with y == 1 on the minority rows."""
    rng = np.random.default_rng([seed, 0xDA7A])
    n_min = int(round(n_rows * minority_fraction))
    n_maj = n_rows - n_min

    base = np.full(N_FEATURES, 5.0)
    X_maj = rng.normal(base, 1.0, size=(n_maj, N_FEATURES))

    dirs = rng.normal(size=(n_min, N_FEATURES))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(*SHELL_RADIUS, size=(n_min, 1))
    X_min = base + dirs * radii

    X = np.clip(np.vstack([X_maj, X_min]), 0.05, None)
    y = np.r_[np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)]

    order = rng.permutation(n_rows)
    return X[order], y[order]


def write_dataset_csv(X, y, path):
    """Write columns f0, f1, ... and `label`, as `data.write_dataset` formats them."""
    features = [f"f{i}" for i in range(X.shape[1])]
    data.write_dataset(data.Dataset(feature_names=features, X=X, y=y, target_name="label"), path)

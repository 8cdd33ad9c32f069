"""Seeded synthetic inputs for the benchmark workloads.

Everything here is the benchmark's own numpy code: it never imports
``strateval``, so a change to the program cannot change what the program
is fed.  Every pool is fully labelled, so the true pool mean is known and
"annotation" is a lookup of the pool's own losses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FINE_ROWS = 10_000
CALIBRATED_ROWS = 100_000
SIDECAR_ROWS = 10_000
SIDECAR_CLASSES = 10

MC_SIZE = 2000
MC_LEVELS = (0.03, 0.25, 0.55, 0.9)
MC_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
MC_BUDGET = 100
MC_STRATA = 4
MC_REPS = 2_000
MC_METHODS = (
    {"name": "SRS+HT", "design": "srs", "estimator": "ht"},
    {"name": "SRS+DF", "design": "srs", "estimator": "df"},
    {"name": "SSRS,p+HT", "design": "ssrs", "estimator": "ht", "allocation": "prop"},
    {"name": "SSRS,o+HT", "design": "ssrs", "estimator": "ht",
     "allocation": "neyman", "sd_source": "true"},
    {"name": "SSRS,plugin+DF", "design": "ssrs", "estimator": "df",
     "allocation": "neyman", "sd_source": "plugin"},
)


@dataclass
class Pool:
    """A fully labelled pool as the benchmark generated it."""

    ids: list[str]
    proxy: np.ndarray
    loss: np.ndarray
    scores: np.ndarray | None = None  # (N, K) class scores, sidecar pools only
    labels: np.ndarray | None = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _ids(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"u{i:0{width}d}" for i in range(n)]


def write_pool_csv(path: Path, pool: Pool) -> None:
    rows = map("{},{!r},{!r}\n".format, pool.ids, pool.proxy.tolist(), pool.loss.tolist())
    path.write_text("id,proxy,loss\n" + "".join(rows))


def fine_proxy_pool(seed: int, n: int = FINE_ROWS) -> Pool:
    """Accuracy pool whose proxy is a Beta-distributed conditional mean.

    Every proxy value is distinct, so exact 1-D k-means sees ``n`` values.
    """
    rng = _rng(seed, 1)
    p = rng.beta(2.0, 5.0, size=n)
    loss = (rng.random(n) < p).astype(float)
    return Pool(_ids(n), p, loss)


def calibrated_pool(seed: int, n: int = CALIBRATED_ROWS) -> Pool:
    """Accuracy pool with a noisy, miscalibrated proxy (losses follow ``p``)."""
    rng = _rng(seed, 2)
    p = rng.beta(2.0, 2.0, size=n)
    loss = (rng.random(n) < p).astype(float)
    proxy = np.clip(p * p + rng.normal(0.0, 0.05, size=n), 0.0, 1.0)
    return Pool(_ids(n), proxy, loss)


def sidecar_pool(seed: int, n: int = SIDECAR_ROWS, k: int = SIDECAR_CLASSES) -> Pool:
    """Squared-error pool with a K-class score sidecar.

    Labels are drawn from the scores, the loss is the Brier-style
    ``(1 - s_label)^2`` and the proxy is its conditional mean under the
    scores, ``sum_k s_k (1 - s_k)^2``.
    """
    rng = _rng(seed, 3)
    conc = rng.choice([0.2, 1.0], size=(n, 1))
    scores = rng.gamma(np.broadcast_to(conc, (n, k)))
    scores /= scores.sum(axis=1, keepdims=True)
    cum = np.cumsum(scores, axis=1)
    labels = np.minimum((cum < rng.random((n, 1))).sum(axis=1), k - 1)
    loss = (1.0 - scores[np.arange(n), labels]) ** 2
    proxy = np.einsum("ik,ik->i", scores, (1.0 - scores) ** 2)
    return Pool(_ids(n), np.clip(proxy, 0.0, 1.0), loss, scores=scores, labels=labels)


def mc_pool(pop_seed: int) -> Pool:
    """The ``two_point`` pool ``strateval simulate`` builds from the spec.

    This follows the documented generator recipe (PCG64 seeded with the
    spec seed, level choice, then Bernoulli outcomes) so the benchmark can
    compute exact design variances for the simulated methods.
    """
    rng = np.random.Generator(np.random.PCG64(pop_seed))
    p = rng.choice(np.asarray(MC_LEVELS), size=MC_SIZE, p=np.asarray(MC_WEIGHTS))
    loss = (rng.random(MC_SIZE) < p).astype(float)
    return Pool(_ids(MC_SIZE), p, loss)


def mc_spec(seed: int) -> dict:
    rng = _rng(seed, 4)
    pop_seed, sim_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
    return {
        "population": {
            "family": "two_point",
            "size": MC_SIZE,
            "seed": pop_seed,
            "params": {"p_values": list(MC_LEVELS), "weights": list(MC_WEIGHTS)},
        },
        "budget": MC_BUDGET,
        "reps": MC_REPS,
        "strata": MC_STRATA,
        "sim_seed": sim_seed,
        "baseline": "SRS+HT",
        "methods": [dict(m) for m in MC_METHODS],
    }


def program_seed(seed: int, stream: int) -> int:
    """A seed passed to the program (split or sample seed), derived from ``seed``."""
    return int(_rng(seed, 100 + stream).integers(0, 2**31))


# -- writers, one per workload -------------------------------------------------


def write_fine(seed: int, root: Path, n: int = FINE_ROWS) -> Pool:
    pool = fine_proxy_pool(seed, n)
    write_pool_csv(root / "pool.csv", pool)
    return pool


def write_calibrated(seed: int, root: Path, n: int = CALIBRATED_ROWS) -> Pool:
    pool = calibrated_pool(seed, n)
    write_pool_csv(root / "pool.csv", pool)
    return pool


def write_sidecar(seed: int, root: Path, n: int = SIDECAR_ROWS) -> Pool:
    pool = sidecar_pool(seed, n)
    recs = map('{{"id": "{}", "proxy": {!r}, "loss": {!r}}}\n'.format,
               pool.ids, pool.proxy.tolist(), pool.loss.tolist())
    (root / "pool.jsonl").write_text("".join(recs))
    side = map('{{"id": "{}", "label": {}, "scores": {}}}\n'.format,
               pool.ids, pool.labels.tolist(),
               (json.dumps(row) for row in pool.scores.tolist()))
    (root / "scores.jsonl").write_text("".join(side))
    return pool


def write_mc(seed: int, root: Path) -> Pool:
    spec = mc_spec(seed)
    (root / "spec.json").write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    pool = mc_pool(spec["population"]["seed"])
    write_pool_csv(root / "reference_pool.csv", pool)
    return pool

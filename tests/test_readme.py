"""The README's Python blocks run as written, in order, in one namespace."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = python_blocks()
    assert len(blocks) == 2
    # a small fully labeled pool; `annotate` plays the labeling loop by lookup
    rng = np.random.default_rng(3)
    p = rng.beta(2, 3, 400)
    loss = (rng.random(400) < p).astype(float)
    rows = [f"u{i:03d},{float(p[i])!r},{float(loss[i])!r}" for i in range(400)]
    (tmp_path / "pool.csv").write_text("id,proxy,loss\n" + "\n".join(rows) + "\n")
    labels = dict(zip((f"u{i:03d}" for i in range(400)), loss))
    monkeypatch.chdir(tmp_path)
    namespace = {"annotate": lambda ids: np.array([labels[u] for u in ids])}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    theta, se = namespace["theta"], namespace["se"]
    assert abs(theta - loss.mean()) < 4 * se

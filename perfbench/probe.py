"""A fixed reference job that measures how fast the host runs right now.

It does the kinds of work the CLI does (interpreter start, numpy import,
CSV parsing into floats, an id index, many small numpy calls, JSON
output) on a fixed input, so its time changes only with the host's
speed.  ``run.py`` runs it between rounds and scales command times by it.
"""

import csv
import io
import json

import numpy as np


def main() -> None:
    values = np.random.default_rng(0).random(20_000)
    text = "".join(f"u{i},{v!r},{i % 2}.0\n" for i, v in enumerate(values.tolist()))
    rows = list(csv.reader(io.StringIO(text)))
    index = {row[0]: i for i, row in enumerate(rows)}
    parsed = np.array([float(row[1]) for row in rows])
    total = 0.0
    for k in range(4000):
        window = np.arange(k % 50, 100)
        total += float(np.min(parsed[window] * 2.0))
    json.dumps({"total": total, "rows": len(index)})


if __name__ == "__main__":
    main()

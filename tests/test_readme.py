"""README's Library-use example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).parents[1] / "README.md"


def library_use_block():
    """The first Python block under README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs():
    rng = np.random.default_rng(3)
    trials = []
    for _ in range(3):  # the example's `trials`: (y, a, x) of each study
        x = np.column_stack([rng.normal(0.0, 1.0, 120), rng.integers(0, 2, 120)])
        a = np.arange(120) % 2
        trials.append((0.5 * x[:, 0] * a + rng.normal(0.0, 1.0, 120), a, x))
    names = {"trials": trials}
    exec(compile(library_use_block(), str(README), "exec"), names)
    assert names["tau"].shape == names["se2"].shape == (3, 2)
    assert names["outside"].tolist() == [[False, False], [False, False]]
    pooled = names["pooled"]
    for values in (pooled.theta2, pooled.tau_pooled, pooled.half_width,
                   names["lower"], names["upper"]):
        assert values.shape == (2,) and np.isfinite(values).all()
    assert np.isnan(names["mixed"].half_width[0]) and np.isfinite(names["mixed"].half_width[1])
    assert np.isnan(names["two"].half_width).all()

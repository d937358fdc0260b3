"""Static SVG figures emitted as deterministic markup.

No plotting library: elements are written directly with fixed canvas
geometry, fixed colors and fixed-precision coordinates, so identical inputs
produce byte-identical files that can be golden-tested.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 800.0
_HEIGHT = 500.0
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 30.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 60.0

_AXIS_COLOR = "#333333"
_ZERO_COLOR = "#999999"
_INTERVAL_COLOR = "#2b6cb0"
_CENTER_COLOR = "#1a202c"
_STUDY_COLOR = "#a0aec0"
_PI_COLOR = "#c05621"
_BOX_COLOR = "#2b6cb0"


def _f(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, title: str, digest: str = ""):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_f(_WIDTH)} {_f(_HEIGHT)}">',
        ]
        if digest:
            self.parts.append(f"<!-- manifest:{digest} -->")
        self.parts.append(
            f'<rect x="0" y="0" width="{_f(_WIDTH)}" height="{_f(_HEIGHT)}" fill="#ffffff"/>'
        )
        self.text(_WIDTH / 2, _MARGIN_TOP / 2 + 5, title, anchor="middle", size=15)

    def line(self, x1, y1, x2, y2, color, width=1.0, cls="", dash=""):
        attrs = f'x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"'
        attrs += f' stroke="{color}" stroke-width="{_f(width)}"'
        if cls:
            attrs += f' class="{cls}"'
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        self.parts.append(f"<line {attrs}/>")

    def rect(self, x, y, w, h, fill, stroke, cls=""):
        attrs = f'x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}"'
        attrs += f' fill="{fill}" stroke="{stroke}"'
        if cls:
            attrs += f' class="{cls}"'
        self.parts.append(f"<rect {attrs}/>")

    def circle(self, cx, cy, r, fill, cls=""):
        attrs = f'cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"'
        if cls:
            attrs += f' class="{cls}"'
        self.parts.append(f"<circle {attrs}/>")

    def text(self, x, y, content, anchor="start", size=11):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{_AXIS_COLOR}">'
            f"{content}</text>"
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _YScale:
    def __init__(self, lo: float, hi: float):
        if hi <= lo:
            hi = lo + 1.0
        pad = 0.05 * (hi - lo)
        self.lo = lo - pad
        self.hi = hi + pad

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return _HEIGHT - _MARGIN_BOTTOM - frac * (_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM)


def _frame(canvas: _Canvas, scale: _YScale, x_label: str, y_label: str):
    x0 = _MARGIN_LEFT
    x1 = _WIDTH - _MARGIN_RIGHT
    y0 = _HEIGHT - _MARGIN_BOTTOM
    canvas.line(x0, _MARGIN_TOP, x0, y0, _AXIS_COLOR)
    canvas.line(x0, y0, x1, y0, _AXIS_COLOR)
    for value in (scale.lo, scale.hi):
        y = scale(value)
        canvas.line(x0 - 4, y, x0, y, _AXIS_COLOR)
        canvas.text(x0 - 8, y + 4, f"{value:.3g}", anchor="end")
    canvas.text(_WIDTH / 2, _HEIGHT - 15, x_label, anchor="middle", size=12)
    canvas.text(15, _HEIGHT / 2, y_label, anchor="middle", size=12)


def prediction_intervals_svg(rows, digest: str = "") -> str:
    """One vertical interval per profile, ordered by the point estimate.

    Rows without interval columns (K = 2 output) are skipped.  A horizontal
    zero line marks sign changes.
    """
    rows = [r for r in rows if r.lower is not None]
    rows = sorted(rows, key=lambda r: (r.tau_pooled, r.profile_id))
    canvas = _Canvas("Prediction intervals by profile", digest)
    lo = min([r.lower for r in rows], default=-1.0)
    hi = max([r.upper for r in rows], default=1.0)
    scale = _YScale(min(lo, 0.0), max(hi, 0.0))
    _frame(canvas, scale, "profiles ordered by estimated effect", "effect")
    zero_y = scale(0.0)
    canvas.line(_MARGIN_LEFT, zero_y, _WIDTH - _MARGIN_RIGHT, zero_y,
                _ZERO_COLOR, cls="zero-line", dash="4 3")
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    n = len(rows)
    for i, row in enumerate(rows):
        x = _MARGIN_LEFT + span * (i + 0.5) / max(n, 1)
        canvas.line(x, scale(row.lower), x, scale(row.upper),
                    _INTERVAL_COLOR, cls="interval")
        canvas.circle(x, scale(row.tau_pooled), 1.6, _CENTER_COLOR, cls="center")
    return canvas.render()


def compare_intervals_svg(per_profile, digest: str = "") -> str:
    """Study confidence intervals next to the target prediction interval.

    ``per_profile`` is a list of (profile_id, study_intervals, pi) where
    study_intervals is a list of (study_id, lower, center, upper) and pi is
    (lower, center, upper) for the target setting.  Renders K + 1 segments
    per profile.
    """
    canvas = _Canvas("Study intervals vs target prediction interval", digest)
    values = []
    for _, studies, pi in per_profile:
        values.extend([s[1] for s in studies] + [s[3] for s in studies])
        values.extend([pi[0], pi[2]])
    scale = _YScale(min(min(values), 0.0), max(max(values), 0.0))
    _frame(canvas, scale, "covariate profiles", "effect")
    zero_y = scale(0.0)
    canvas.line(_MARGIN_LEFT, zero_y, _WIDTH - _MARGIN_RIGHT, zero_y,
                _ZERO_COLOR, cls="zero-line", dash="4 3")
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    n_groups = len(per_profile)
    for g, (profile_id, studies, pi) in enumerate(per_profile):
        group_left = _MARGIN_LEFT + span * g / n_groups
        group_width = span / n_groups
        slots = len(studies) + 1
        for s, (study_id, lower, center, upper) in enumerate(studies):
            x = group_left + group_width * (s + 0.5) / slots
            canvas.line(x, scale(lower), x, scale(upper), _STUDY_COLOR,
                        width=1.4, cls="study-ci")
            canvas.circle(x, scale(center), 1.6, _AXIS_COLOR, cls="study-center")
        x = group_left + group_width * (slots - 0.5) / slots
        canvas.line(x, scale(pi[0]), x, scale(pi[2]), _PI_COLOR,
                    width=2.2, cls="target-pi")
        canvas.circle(x, scale(pi[1]), 2.0, _PI_COLOR, cls="target-center")
        canvas.text(group_left + group_width / 2, _HEIGHT - _MARGIN_BOTTOM + 16,
                    f"profile {profile_id}", anchor="middle")
    return canvas.render()


def _box_stats(values: np.ndarray):
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    in_lo = values[values >= q1 - 1.5 * iqr]
    in_hi = values[values <= q3 + 1.5 * iqr]
    whisker_lo = float(in_lo.min()) if in_lo.size else float(q1)
    whisker_hi = float(in_hi.max()) if in_hi.size else float(q3)
    outliers = values[(values < whisker_lo) | (values > whisker_hi)]
    return float(q1), float(med), float(q3), whisker_lo, whisker_hi, outliers


def coverage_boxplot_svg(tables, digest: str = "") -> str:
    """Boxplot of per-profile coverage, one box per Stage-1 method."""
    canvas = _Canvas("Per-profile coverage by method", digest)
    scale = _YScale(0.0, 1.0)
    _frame(canvas, scale, "stage-1 method", "coverage")
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    n = len(tables)
    for g, table in enumerate(tables):
        values = np.asarray(table.coverage, dtype=np.float64)
        values = values[np.isfinite(values)]
        center_x = _MARGIN_LEFT + span * (g + 0.5) / n
        half = min(40.0, span / (3.0 * n))
        if not values.size:  # every replication aborted: label only, no box
            canvas.text(center_x, _HEIGHT - _MARGIN_BOTTOM + 16, table.method, anchor="middle")
            continue
        q1, med, q3, w_lo, w_hi, outliers = _box_stats(values)
        canvas.line(center_x, scale(w_lo), center_x, scale(q1), _AXIS_COLOR)
        canvas.line(center_x, scale(q3), center_x, scale(w_hi), _AXIS_COLOR)
        for w in (w_lo, w_hi):
            canvas.line(center_x - half / 2, scale(w), center_x + half / 2, scale(w),
                        _AXIS_COLOR)
        canvas.rect(center_x - half, scale(q3), 2 * half, scale(q1) - scale(q3),
                    "none", _BOX_COLOR, cls="box")
        canvas.line(center_x - half, scale(med), center_x + half, scale(med),
                    _BOX_COLOR, width=2.0, cls="median")
        for value in np.sort(outliers):
            canvas.circle(center_x, scale(float(value)), 2.0, _AXIS_COLOR,
                          cls="outlier")
        canvas.text(center_x, _HEIGHT - _MARGIN_BOTTOM + 16, table.method,
                    anchor="middle")
    return canvas.render()

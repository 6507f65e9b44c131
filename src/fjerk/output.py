"""CSV emission and static SVG rendering.

All CSV files use LF line endings, always carry a header, and print floats
with 17 significant digits so a written file reproduces its values bit-exactly
when re-read. SVG output is standalone and dependency-free so regenerated
figures diff cleanly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .chaos import SweepResult
from .hopf import HopfSolution
from .solver import Trajectory

__all__ = [
    "fmt",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_sweep_csv",
    "write_lyapunov_csv",
    "hopf_key_value_block",
    "write_hopf_csv",
    "render_svg",
]


def fmt(v: float) -> str:
    """Full-precision decimal rendering (17 significant digits)."""
    return format(float(v), ".17g")


def _write_csv(header: Sequence[str], rows: Iterable[Sequence[str]], path) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as err:
        raise OSError(f"cannot write CSV to {path}: {err}") from err


def write_trajectory_csv(traj: Trajectory, path) -> None:
    rows = (
        (fmt(t), fmt(s[0]), fmt(s[1]), fmt(s[2]))
        for t, s in zip(traj.t, traj.states)
    )
    _write_csv(("t", "x", "y", "z"), rows, path)


def read_trajectory_csv(path) -> np.ndarray:
    """Columns (t, x, y, z) of a file written by write_trajectory_csv."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_sweep_csv(result: SweepResult, path) -> None:
    def rows():
        for pt in result.points:
            if pt.diverged:
                yield (fmt(pt.epsilon), "divergent", "")
                continue
            for v in pt.maxima:
                yield (fmt(pt.epsilon), "max", fmt(v))
            for v in pt.minima:
                yield (fmt(pt.epsilon), "min", fmt(v))

    _write_csv(("epsilon", "kind", "x_value"), rows(), path)


def write_lyapunov_csv(points, path) -> None:
    """Rows (epsilon, lambda1..3, converged); points = [(eps, spectrum), ...]."""

    def rows():
        for eps, spec in points:
            if spec is None:
                yield (fmt(eps), "", "", "", "")
                continue
            l1, l2, l3 = spec.exponents
            yield (fmt(eps), fmt(l1), fmt(l2), fmt(l3), str(spec.converged).lower())

    _write_csv(("epsilon", "lambda1", "lambda2", "lambda3", "converged"), rows(), path)


def _orders_label(sol: HopfSolution, orders_text: str | None) -> str:
    return orders_text if orders_text is not None else fmt(2.0 * sol.theta / np.pi)


def hopf_key_value_block(sol: HopfSolution, orders_text: str | None = None) -> str:
    lines = [
        f"branch={sol.branch}",
        f"alpha_or_orders={_orders_label(sol, orders_text)}",
        f"gamma_H={fmt(sol.gamma_H)}",
        f"epsilon_H={fmt(sol.epsilon_H)}",
        f"theta={fmt(sol.theta)}",
        f"residual_re={fmt(sol.residual_re)}",
        f"residual_im={fmt(sol.residual_im)}",
    ]
    if sol.reduced is not None:
        r = sol.reduced
        lines.append(f"reduction=M:{r.M},p:{r.p},q:{r.q},m:{r.m}")
    return "\n".join(lines)


def write_hopf_csv(sol: HopfSolution, path, orders_text: str | None = None) -> None:
    row = (sol.branch, _orders_label(sol, orders_text), fmt(sol.gamma_H), fmt(sol.epsilon_H),
           fmt(sol.residual_re), fmt(sol.residual_im))
    _write_csv(
        ("branch", "alpha_or_orders", "gamma_H", "epsilon_H", "residual_re", "residual_im"),
        [row],
        path,
    )


_W, _H = 720, 480
_ML, _MR, _MT, _MB = 60, 20, 40, 45


class _Axes:
    """Linear data-to-pixel transform with a 5% padding box."""

    def __init__(self, xs, ys):
        x0, x1 = float(np.min(xs)), float(np.max(xs))
        y0, y1 = float(np.min(ys)), float(np.max(ys))
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        px, py = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
        self.x0, self.x1 = x0 - px, x1 + px
        self.y0, self.y1 = y0 - py, y1 + py

    def x(self, v) -> float:
        return _ML + (v - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def y(self, v) -> float:
        return _H - _MB - (v - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)


def _svg_open(title: str, ax: _Axes, xlabel: str, ylabel: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 15}" font-size="10">{ax.x0:.4g}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 15}" text-anchor="end" font-size="10">{ax.x1:.4g}</text>',
        f'<text x="{_ML - 4}" y="{_H - _MB}" text-anchor="end" font-size="10">{ax.y0:.4g}</text>',
        f'<text x="{_ML - 4}" y="{_MT + 10}" text-anchor="end" font-size="10">{ax.y1:.4g}</text>',
    ]


def _polyline(xs, ys, ax: _Axes, color: str, cls: str = "") -> str:
    pts = " ".join(f"{ax.x(x):.2f},{ax.y(y):.2f}" for x, y in zip(xs, ys))
    attr = f' class="{cls}"' if cls else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"{attr}/>'


def render_svg(dataset, kind: str, path, title: str = "", plane: str = "xy") -> None:
    """Render one figure.

    kind 'bifurcation': dataset = [(eps, value), ...] scatter.
    kind 'lyapunov':    dataset = [(eps, (l1, l2, l3)), ...] polylines + zero line.
    kind 'portrait':    dataset = Trajectory; 2-D projection chosen by plane.
    """
    if kind == "bifurcation":
        xs = [d[0] for d in dataset]
        ys = [d[1] for d in dataset]
        if not xs:
            raise ValueError("empty bifurcation dataset")
        ax = _Axes(xs, ys)
        parts = _svg_open(title or "bifurcation diagram", ax, "epsilon", "x extrema")
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{ax.x(x):.2f}" cy="{ax.y(y):.2f}" r="1.2" fill="black"/>'
            )
    elif kind == "lyapunov":
        xs = [d[0] for d in dataset]
        triples = np.array([d[1] for d in dataset], dtype=float)
        if not xs:
            raise ValueError("empty lyapunov dataset")
        ax = _Axes(xs, np.append(triples.reshape(-1), 0.0))
        parts = _svg_open(title or "lyapunov exponents", ax, "epsilon", "lambda")
        zero = ax.y(0.0)
        parts.append(
            f'<line class="zero-line" x1="{_ML}" y1="{zero:.2f}" x2="{_W - _MR}" '
            f'y2="{zero:.2f}" stroke="gray" stroke-dasharray="4 3"/>'
        )
        for i, color in enumerate(("crimson", "royalblue", "seagreen")):
            parts.append(_polyline(xs, triples[:, i], ax, color))
    elif kind == "portrait":
        cols = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}
        if plane not in cols:
            raise ValueError(f"plane must be one of {sorted(cols)}, got {plane!r}")
        i, j = cols[plane]
        xs = dataset.states[:, i]
        ys = dataset.states[:, j]
        ax = _Axes(xs, ys)
        parts = _svg_open(title or f"phase portrait ({plane})", ax, plane[0], plane[1])
        parts.append(_polyline(xs, ys, ax, "black"))
    else:
        raise ValueError(f"unknown figure kind {kind!r}")
    parts.append("</svg>")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as err:
        raise OSError(f"cannot write SVG to {path}: {err}") from err

"""Minimal dependency-free SVG line plots for the figure outputs.

Fixed 960x640 canvas, linear axes with round tick steps, one polyline per
series.  Output is deterministic for identical input.

The module imports math alone.  Text is escaped here rather than by
xml.sax.saxutils, whose import pulls in urllib.request and with it
http.client, ssl and email: about 6.6 MB of peak memory and 30 ms per
process (2 shared x86-64 vCPUs, Python 3.11), for three replacements.
"""

import math

WIDTH = 960
HEIGHT = 640
MARGIN_L = 80
MARGIN_R = 30
MARGIN_T = 50
MARGIN_B = 60

_PALETTE = ("#1f6fb2", "#d1495b", "#3a923a", "#8a6d3b", "#6a51a3")


def escape(text):
    """``text`` with &, < and > as entities, like xml.sax.saxutils.escape."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span, target=6):
    if span <= 0.0:
        return 1.0
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo, hi):
    step = _nice_step(hi - lo)
    v = math.ceil(lo / step) * step
    out = []
    # bounded: where step is below half the spacing of doubles, v += step stalls
    for _ in range(int((hi - lo) / step) + 2):
        if v > hi + 1e-9 * step:
            break
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _range(values, pad):
    """The axis range of ``values``, widened by ``pad`` of its span each way."""
    lo, hi = min(values), max(values)
    # a span below the least normal double has no tick step (it underflows),
    # so it is padded as a flat one; past 2**52 a pad of 1.0 would stay flat
    if hi - lo < 2.0 ** -1022:
        hi = lo + max(1.0, abs(lo) * 2.0 ** -51)
    pad *= hi - lo
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(WIDTH * (hi - lo)):
        raise ValueError(f"the points span {min(values):g} .. {max(values):g}, too wide to draw")
    return lo, hi


def line_plot(series, title="", xlabel="", ylabel=""):
    """Render series = [(label, xs, ys), ...] as an SVG document string.

    ValueError on no points, on a series whose xs and ys differ in length,
    on a point that is not finite, or on a span too wide to scale to the
    canvas.
    """
    if not series:
        raise ValueError("need at least one series")
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r} has {len(xs)} xs and {len(ys)} ys")
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("series contain no points")
    if not all(map(math.isfinite, xs_all + ys_all)):
        raise ValueError("every point must be finite")
    x_lo, x_hi = _range(xs_all, 0.0)
    y_lo, y_hi = _range(ys_all, 0.04)

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + inner_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + inner_h * (y_hi - y) / (y_hi - y_lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    def line(x1, y1, x2, y2, stroke="black", width=1):
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def text(x, y, size, body, anchor="middle", transform=""):
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        transform = f' transform="{transform}"' if transform else ""
        out.append(
            f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{escape(body)}</text>'
        )

    if title:
        text(WIDTH / 2, 28, 18, title)
    axis_y = MARGIN_T + inner_h
    line(MARGIN_L, axis_y, MARGIN_L + inner_w, axis_y)
    line(MARGIN_L, MARGIN_T, MARGIN_L, axis_y)
    for tx in _ticks(x_lo, x_hi):
        x = f"{px(tx):.2f}"
        line(x, axis_y, x, axis_y + 5)
        text(x, axis_y + 20, 12, f"{tx:.6g}")
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        line(MARGIN_L - 5, f"{y:.2f}", MARGIN_L, f"{y:.2f}")
        text(MARGIN_L - 9, f"{y + 4:.2f}", 12, f"{ty:.6g}", anchor="end")
    if xlabel:
        text(MARGIN_L + inner_w / 2, HEIGHT - 14, 14, xlabel)
    if ylabel:
        cy = MARGIN_T + inner_h / 2
        text(22, cy, 14, ylabel, transform=f"rotate(-90 22 {cy})")
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        if label:
            ly = MARGIN_T + 18 + 18 * i
            lx = MARGIN_L + inner_w - 200
            line(lx, ly - 4, lx + 26, ly - 4, color, 1.5)
            text(lx + 32, ly, 13, label, anchor="")
    out.append("</svg>")
    return "\n".join(out) + "\n"

"""Independent checks of every benchmark request's output.

None of these routes calls into eucalc.  Each recomputes the answer from the
request's own JSON input by a different algorithm than the program's:

* ``transform``: linearity of the Lebesgue pairing.  Each generator pushes
  forward to the indicator of [min <xi,P>, max <xi,P>] (closed polytopes,
  including the closed boxes of the inclusion-exclusion of a half-open
  box) or of [<xi,low>, inf) (orthant rays, for xi in the open positive
  quadrant), so the transform is the sum of c * (K(max) - K(min)) with the
  kernel antiderivative K.  Ray coefficients add up to a net value at +inf,
  which decides whether a cell is missing.
* ``ect`` and ``sublevel``: the lower-star model.  The sublevel set at t has
  the Euler characteristic of the full subcomplex on the vertices with value
  <= t, so each cell adds (-1)^dim at its largest vertex value; the kernel
  transform is the closed-form pairing of those jumps.
* ``bessel``: Mobius inversion of the face-poset recursion.  The closed ball
  of radius t has chi = sum over faces f of w_f [d_f <= t] with
  w_f = sum over cells c >= f of (-1)^(|c| - |f|), and the open ball has
  chi_c = sum of (-1)^dim f [d_f < t], so the integral of their difference
  over t >= 0 is -sum of (w_f - (-1)^dim f) d_f.
* ``radon``: the same generators give the exact pushforward value at t as
  the sum of c over the generators whose interval [min, max] holds t, and
  the recovered value as the program's documented quadrature (trapezoid
  rule over s in [ds, A] of the inverse Fourier integral, evaluated at t
  shifted by delta into the side of the direction's polar cone) applied
  to the generators' interval endpoints, in sine form, rather than to the
  pieces of the program's canonical step function.
  Along a direction of mixed signs the recovered value must be exactly 0.
* ``verify``: exit code 0 and one PASS line per requested suite.

Tolerances allow for rounding and for the program's documented merging of
breakpoints closer than 1e-9: a merge moves a breakpoint by at most 1e-9, so
each term may shift by 1e-9 times the kernel at that point.
"""

import csv
import io
import math
from itertools import combinations

import numpy as np

INF = float("inf")
MERGE = 1e-9  # breakpoint merge distance of the program's step algebra
ROUND = 1e-12  # relative rounding allowance


class Kernel:
    """Antiderivative K of a windowed kernel and the kernel itself."""

    def __init__(self, spec):
        parts = spec.split(":")
        name, rest = parts[0], parts[1:]
        self.lo, self.hi = -INF, INF
        if name == "ecb":
            self.hi = float(rest.pop(0))
        for token in rest:
            lo, hi = token[len("window="):].split(",")
            self.lo, self.hi = max(self.lo, float(lo)), min(self.hi, float(hi))
        self.name = name

    def _raw(self, x):
        if self.name == "laplace":
            return -math.exp(-x)
        if self.name == "fourier":
            return 1j * complex(math.cos(x), -math.sin(x))
        if self.name == "gr":
            return max(x, 0.0)
        return x  # ecb: the constant kernel 1

    def antideriv(self, x):
        """K at a clipped finite point."""
        return self._raw(min(max(x, self.lo), self.hi))

    def at_pos_inf(self):
        """K(+inf), or None where it is undefined."""
        if self.hi < INF:
            return self._raw(self.hi)
        return 0.0 if self.name == "laplace" else None

    def slope(self, x):
        """|kernel(x)|, unclipped: a bound on how fast K moves at x."""
        return math.exp(-x) if self.name == "laplace" else 1.0

    def magnitude(self, x):
        """|K(x)| + |kernel(x)|: the size of a term at x and of its shift
        under a 1e-9 breakpoint merge."""
        return abs(self.antideriv(x)) + self.slope(x)


def _close(got, want, scale):
    return abs(got - want) <= MERGE * (1.0 + scale)


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _cell(re_text, im_text):
    if re_text == "" and im_text == "":
        return None
    return complex(float(re_text), float(im_text))


# -- transform ----------------------------------------------------------------------


def scene_generators(scene):
    """(closed, rays): closed is a list of (coef, points) after the
    inclusion-exclusion of bounded boxes; rays is a list of (coef, low)."""
    closed, rays = [], []
    for term in scene["terms"]:
        coef = int(term["coef"])
        if term["type"] == "polytope":
            closed.append((coef, np.asarray(term["points"], dtype=float)))
            continue
        low = np.asarray(term["low"], dtype=float)
        high = np.asarray(term["high"], dtype=float)
        if not np.all(np.isfinite(high)):
            rays.append((coef, low))
            continue
        # per axis 1_[a,b) = 1_[a,b] - 1_{b}; tensor the choices
        axes = [((+1, (a, b)), (-1, (b,))) for a, b in zip(low, high)]
        for choice in np.ndindex(*(2,) * len(axes)):
            sign, values = 1, []
            for axis, k in zip(axes, choice):
                s, vals = axis[k]
                sign *= s
                values.append(vals)
            corners = np.array(np.meshgrid(*values, indexing="ij")).reshape(len(axes), -1).T
            closed.append((coef * sign, corners))
    return closed, rays


def _near(points, extra=()):
    """Indices of ``points`` with another distinct point of ``points`` or
    ``extra`` within the merge distance."""
    allp = sorted(set(points) | {x for x in extra if math.isfinite(x)})
    near = set()
    for a, b in zip(allp, allp[1:]):
        if b - a <= MERGE:
            near |= {a, b}
    return [k for k, x in enumerate(points) if x in near]


def transform_oracle(scene, kernel_spec, xi):
    """(value, tolerance) of the transform at xi; value None for a missing
    cell.

    The tolerance allows ROUND relative to every term, and the shift of a
    term by the kernel times 1e-9 where its end point lies within 1e-9 of
    another end point or a window end, which the program merges.
    """
    kernel = Kernel(kernel_spec)
    closed, rays = scene_generators(scene)
    total, ends, weights = 0j, [], []
    for coef, pts in closed:
        proj = pts @ xi
        lo, hi = float(proj.min()), float(proj.max())
        ends += [lo, hi]
        weights += [0, 0] if hi == lo else [abs(coef)] * 2
        if hi > lo:
            total += coef * (kernel.antideriv(hi) - kernel.antideriv(lo))
    net = 0
    for coef, low in rays:
        s = float(low @ xi)
        net += coef
        total -= coef * kernel.antideriv(s)
        ends.append(s)
        weights.append(abs(coef))
    rounding = sum(w * (abs(kernel.antideriv(x)) + kernel.slope(x) * (1.0 + abs(x)))
                   for x, w in zip(ends, weights))
    merge = sum(weights[k] * kernel.slope(ends[k])
                for k in _near(ends, (kernel.lo, kernel.hi)))
    if net:
        top = kernel.at_pos_inf()
        if top is None:
            return None, 0.0
        total += net * top
        rounding += abs(net) * abs(top)
    return total, ROUND * (1.0 + rounding) + MERGE * merge


def check_transform(request, code, out):
    """List of problems with one ``transform`` response (empty when correct)."""
    scene = request["files"][request["scene"]]
    header, rows = _parse_csv(out)
    if header != ["dir_1", "dir_2", "radius", "re", "im"]:
        return [f"bad header {header}"]
    dirs, radii = request["directions"], request["radii"]
    if len(rows) != len(dirs) * len(radii):
        return [f"{len(rows)} rows, want {len(dirs) * len(radii)}"]
    problems, missing = [], 0
    for k, row in enumerate(rows):
        d = np.asarray(dirs[k // len(radii)])
        r = radii[k % len(radii)]
        if [float(row[0]), float(row[1])] != d.tolist() or not abs(float(row[2]) - r) <= ROUND * r:
            problems.append(f"row {k}: grid point {row[:3]}")
            continue
        want, tol = transform_oracle(scene, request["kernel"], r * d)
        got = _cell(row[3], row[4])
        if want is None or got is None:
            if (want is None) != (got is None):
                problems.append(f"row {k}: got {got}, want {want}")
            missing += want is None
        elif not abs(got - want) <= tol:
            problems.append(f"row {k}: got {got!r}, want {want!r}")
    expected_code = 3 if missing * 2 > len(rows) else 0
    if code != expected_code:
        problems.append(f"exit code {code}, want {expected_code}")
    return problems


# -- meshes -------------------------------------------------------------------------


def mesh_cells(mesh):
    """All faces of the given cells, as sorted vertex-index tuples."""
    cells = set()
    for cell in mesh["cells"]:
        cell = tuple(sorted(int(i) for i in cell))
        for size in range(1, len(cell) + 1):
            cells.update(combinations(cell, size))
    return sorted(cells, key=lambda c: (len(c), c))


def lower_star_jumps(cells, heights):
    """Jumps (t, m) of t -> chi{g <= t}: each cell enters at its top vertex."""
    tops = np.array([max(heights[list(c)]) for c in cells])
    signs = np.array([(-1) ** (len(c) - 1) for c in cells])
    order = np.argsort(tops, kind="stable")
    jumps = []
    for t, s in zip(tops[order], signs[order]):
        if jumps and t - jumps[-1][0] <= MERGE:
            jumps[-1][1] += int(s)
        else:
            jumps.append([float(t), int(s)])
    return [(t, m) for t, m in jumps if m]


def _heights(mesh, direction, use_values):
    if use_values:
        return np.asarray(mesh["values"], dtype=float) * direction[0]
    return np.asarray(mesh["vertices"], dtype=float) @ np.asarray(direction)


def check_ect(request, code, out):
    mesh = request["files"][request["mesh"]]
    want = lower_star_jumps(mesh_cells(mesh), _heights(mesh, request["xi"], False))
    header, rows = _parse_csv(out)
    if code != 0 or header != ["t", "jump"]:
        return [f"exit code {code}, header {header}"]
    got = [(float(t), int(m)) for t, m in rows]
    if len(got) != len(want):
        return [f"{len(got)} jumps, want {len(want)}"]
    return [
        f"jump {k}: got {g}, want {w}"
        for k, (g, w) in enumerate(zip(got, want))
        if g[1] != w[1] or not _close(g[0], w[0], abs(w[0]))
    ]


def sublevel_oracle(jumps, kernel_spec):
    """(value, scale) of the kernel paired with sum m 1_[c, inf)."""
    kernel = Kernel(kernel_spec)
    total, scale = 0j, 0.0
    for c, m in jumps:
        total -= m * kernel.antideriv(c)
        scale += abs(m) * kernel.magnitude(c)
    net = sum(m for _, m in jumps)
    if net:
        top = kernel.at_pos_inf()
        if top is None:
            return None, scale
        total += net * top
        scale += abs(net) * abs(top)
    return total, scale


def check_sublevel(request, code, out):
    mesh = request["files"][request["mesh"]]
    cells = mesh_cells(mesh)
    header, rows = _parse_csv(out)
    directions = request["directions"]
    dim = len(directions[0])
    if header != [f"dir_{k + 1}" for k in range(dim)] + ["re", "im"]:
        return [f"bad header {header}"]
    if len(rows) != len(directions):
        return [f"{len(rows)} rows, want {len(directions)}"]
    problems, missing = [], 0
    for k, (row, direction) in enumerate(zip(rows, directions)):
        if not np.allclose([float(x) for x in row[:dim]], direction, rtol=0, atol=1e-12):
            problems.append(f"row {k}: direction {row[:dim]}")
            continue
        heights = _heights(mesh, direction, request["values"])
        want, scale = sublevel_oracle(lower_star_jumps(cells, heights), request["kernel"])
        got = _cell(row[dim], row[dim + 1])
        if want is None or got is None:
            if (want is None) != (got is None):
                problems.append(f"row {k}: got {got}, want {want}")
            missing += want is None
        elif not _close(got, want, scale):
            problems.append(f"row {k}: got {got!r}, want {want!r}")
    expected_code = 3 if missing * 2 > len(rows) else 0
    if code != expected_code:
        problems.append(f"exit code {code}, want {expected_code}")
    return problems


def _segment_distance(v, a, b):
    ab = b - a
    length2 = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", v - a, ab) / length2, 0.0, 1.0)
    return np.linalg.norm(v - (a + t[:, None] * ab), axis=1)


def cell_distances(vertices, cells, v):
    """Euclidean distance from v to each closed cell of a planar complex."""
    v = np.asarray(v, dtype=float)
    out = np.empty(len(cells))
    for size in (1, 2, 3):
        idx = [k for k, c in enumerate(cells) if len(c) == size]
        if not idx:
            continue
        pts = vertices[np.array([cells[k] for k in idx])]  # (n, size, 2)
        if size == 1:
            dist = np.linalg.norm(pts[:, 0] - v, axis=1)
        elif size == 2:
            dist = _segment_distance(v, pts[:, 0], pts[:, 1])
        else:
            a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
            edges = np.minimum(
                np.minimum(_segment_distance(v, a, b), _segment_distance(v, b, c)),
                _segment_distance(v, c, a),
            )
            # inside test: v on the same side of all three edges
            def side(p, q):
                return (q[:, 0] - p[:, 0]) * (v[1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (v[0] - p[:, 0])

            s1, s2, s3 = side(a, b), side(b, c), side(c, a)
            inside = ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))
            dist = np.where(inside, 0.0, edges)
        out[idx] = dist
    return out


def bessel_oracle(mesh, center):
    """(value, scale) of the Euler-Bessel transform at center."""
    cells = mesh_cells(mesh)
    index = {c: k for k, c in enumerate(cells)}
    weight = np.zeros(len(cells))
    for c in cells:
        for size in range(1, len(c) + 1):
            for f in combinations(c, size):
                weight[index[f]] += (-1) ** (len(c) - size)
    parity = np.array([(-1) ** (len(c) - 1) for c in cells])
    dist = cell_distances(np.asarray(mesh["vertices"], dtype=float), cells, center)
    a = weight - parity
    return float(-np.sum(a * dist)), float(np.sum(np.abs(a) * (1.0 + dist)))


def check_bessel(request, code, out):
    mesh = request["files"][request["mesh"]]
    header, rows = _parse_csv(out)
    if code != 0 or header != ["v_1", "v_2", "value"]:
        return [f"exit code {code}, header {header}"]
    if len(rows) != len(request["centers"]):
        return [f"{len(rows)} rows, want {len(request['centers'])}"]
    problems = []
    for k, (row, center) in enumerate(zip(rows, request["centers"])):
        want, scale = bessel_oracle(mesh, center)
        if [float(row[0]), float(row[1])] != center:
            problems.append(f"row {k}: center {row[:2]}")
        elif not _close(float(row[2]), want, scale):
            problems.append(f"row {k}: got {row[2]}, want {want!r}")
    return problems


# -- radon recovery --------------------------------------------------------------

# the defaults of ``eucalc radon-recover``
RADON_A, RADON_DS, RADON_DELTA = 500.0, 0.01, 1e-3


def _radon_intervals(scene, xi):
    """(coef, min, max) of every closed generator projected on xi."""
    closed, _ = scene_generators(scene)
    out = []
    for coef, pts in closed:
        proj = pts @ np.asarray(xi)
        out.append((coef, float(proj.min()), float(proj.max())))
    return out


def radon_oracle(scene, xi, t):
    """(exact, recovered, tolerance) of ``radon-recover`` at (xi, t).

    The generators' transforms add up to (i/s) sum_e w_e e^{-is e} over the
    distinct endpoints e, with w_e the coefficients of the intervals ending
    at e minus those starting there, so the real part of the integrand is
    -sum_e w_e sin(s (t' - e)) / s at the shifted point t'.

    The tolerance allows for rounding and, where two distinct endpoints lie
    within the 1e-9 merge distance, for the merge moving one onto the
    other: a shift e of an endpoint of weight |c| moves the quadrature by
    at most A |c| e / pi.
    """
    intervals = _radon_intervals(scene, xi)
    exact = sum(c for c, lo, hi in intervals if lo <= t <= hi)
    if min(xi) < 0.0 < max(xi):
        return exact, 0.0, 0.0
    t_probe = t + RADON_DELTA if min(xi) > 0.0 else t - RADON_DELTA
    weights = {}
    for c, lo, hi in intervals:
        if hi > lo:
            weights[hi] = weights.get(hi, 0) + c
            weights[lo] = weights.get(lo, 0) - c
    s = np.arange(1, int(round(RADON_A / RADON_DS)) + 1) * RADON_DS
    integrand = np.zeros_like(s)
    for e, w in weights.items():
        if w:
            integrand -= w * np.sin(s * (t_probe - e))
    recovered = float(np.trapezoid(integrand / s, s) / np.pi)
    ends = sorted((e, abs(c)) for c, lo, hi in intervals if hi > lo for e in (lo, hi))
    shift = sum((w1 + w2) * (f - e) for (e, w1), (f, w2) in zip(ends, ends[1:])
                if f - e <= MERGE)
    weight = sum(abs(c) for c, _, _ in intervals)
    return exact, recovered, 1e-10 * (1.0 + weight) + RADON_A / math.pi * shift


def check_radon(request, code, out):
    lines = [line.split() for line in out.splitlines()]
    if code != 0:
        return [f"exit code {code}"]
    if [f[0] for f in lines] != ["recovered", "exact"] or any(len(f) != 2 for f in lines):
        return [f"bad output {out!r}"]
    got_recovered, got_exact = float(lines[0][1]), float(lines[1][1])
    scene = request["files"][request["scene"]]
    exact, recovered, tol = radon_oracle(scene, request["xi"], request["t"])
    problems = []
    if got_exact != exact:
        problems.append(f"exact {got_exact!r}, want {exact}")
    if not abs(got_recovered - recovered) <= tol:
        problems.append(f"recovered {got_recovered!r}, want {recovered!r} within {tol:.1e}")
    return problems


# -- verify -------------------------------------------------------------------------


def check_verify(request, code, out):
    lines = [line.split() for line in out.splitlines() if line and not line.startswith(" ")]
    names = [fields[0] for fields in lines]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if names != request["suites"]:
        problems.append(f"suites {names}, want {request['suites']}")
    problems += [f"{f[0]}: {f[1]}" for f in lines if len(f) < 2 or f[1] != "PASS"]
    return problems


CHECKS = {
    "transform": check_transform,
    "ect": check_ect,
    "sublevel": check_sublevel,
    "bessel": check_bessel,
    "radon": check_radon,
    "verify": check_verify,
}


def check(request, code, out):
    """Problems with one response: exit code ``code`` and standard output
    ``out``.  An empty list means the response is correct."""
    try:
        return CHECKS[request["kind"]](request, code, out)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]

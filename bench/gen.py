"""Seeded inputs and request decks for the benchmark workloads.

A run is a sequence of rounds.  Every round of a workload draws the same
fixed deck of request classes (scene kind and size, mesh size, suite count,
...) in a seeded order with seeded geometry, so the request mix, and with
it every latency percentile, is the same for every seed; only the geometry
differs.  Round r depends on (seed, workload, r) alone, so the first k
rounds of a run are a pure function of the seed.

A request is a dict: "argv" for ``eucalc.cli.main`` (input paths relative
to the work directory), "files" mapping file names to the JSON documents to
write there, and the fields the independent checks in ``check.py`` need.
"""

import math

import numpy as np

WORKLOADS = ("scene_grid", "mesh_curves", "radon_recover", "verify_small")
# the workloads of BENCHMARK.json.  verify_small is left out while random
# ``eucalc verify`` seeds fail some suites (see README.md); it runs only
# when asked for by name.
LISTED = WORKLOADS[:3]

INF = float("inf")

# -- scene_grid -----------------------------------------------------------------

# (kind, size): ngon = vertices, voxel = boxes (4 closed boxes each after
# expand_box), gamma = triangles (2 terms each), ray = bounded boxes whose
# orthant-ray closure is taken (4 rays each).  Sizes span about 10 to 320
# generators after expand_box.
#
# Every workload has 15 requests per round.  Over whole rounds the median
# falls in the 8th-cheapest request class and the 90th percentile between
# the 13th and the 14th, so each deck puts classes of about equal cost at
# ranks 7-9 and 13-14: the percentiles then do not hinge on a jump in cost
# between two classes.  Here those are ngon40, voxel13 and gamma25 (about
# 0.1 s each at the seed commit), and voxel52 and ngon120 (about 0.55 s).
SCENE_DECK = (
    ("ngon", 6), ("ngon", 16), ("ngon", 40), ("ngon", 80), ("ngon", 120),
    ("voxel", 3), ("voxel", 13), ("voxel", 25), ("voxel", 52), ("voxel", 80),
    ("gamma", 8), ("gamma", 25),
    ("ray_balanced", 4), ("ray_balanced", 12), ("ray_net", 5),
)

# One kernel family per deck entry, in seeded order.  Ray scenes with a net
# coefficient at +inf draw only kernels undefined there, so missing cells
# occur; every other entry draws from the general list.
GENERAL_KERNELS = (
    "laplace", "laplace", "laplace:window", "laplace:window",
    "fourier", "fourier", "fourier:window",
    "gr", "gr", "gr:window",
    "ecb", "ecb", "ecb:window", "fourier",
)
UNBOUNDED_KERNELS = ("fourier", "gr")

GRID_DIRECTIONS = 4
GRID_RADII = 6


def grid_directions(rng, ray):
    """Unit directions evenly spaced from a seeded start angle.

    Even spacing keeps the cost of a request from depending on chance: a
    half-open box pushes forward to zero along a direction whose two
    components differ in sign, so four directions a quarter turn apart
    always hold two of each kind.  Ray scenes need directions on which the
    rays are proper: the open positive quadrant.
    """
    if ray:
        step = (0.5 * math.pi - 0.2) / GRID_DIRECTIONS
        angles = 0.1 + step * (np.arange(GRID_DIRECTIONS) + rng.uniform(0.0, 1.0))
    else:
        angles = rng.uniform(0.0, 2.0 * math.pi) + 0.5 * math.pi * np.arange(GRID_DIRECTIONS)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _kernel_spec(rng, family):
    """Kernel spec for ``eucalc --kernel``; windows always meet the kernel's
    own window, so no spec is an input error."""
    name, _, window = str(family).partition(":")
    spec, bound = name, 0.0
    if name == "ecb":
        bound = rng.uniform(-1.0, 1.0)
        spec = f"ecb:{bound:.6f}"
    if window:
        lo = bound - rng.uniform(1.0, 3.0)
        hi = lo + rng.uniform(1.0, 4.0)
        spec += f":window={lo:.6f},{hi:.6f}"
    return spec


def _polytope(coef, points):
    return {"coef": int(coef), "type": "polytope",
            "points": [[float(x) for x in p] for p in points]}


def _box(coef, low, high):
    return {"coef": int(coef), "type": "halfopen_box",
            "low": [float(x) for x in low], "high": [float(x) for x in high]}


def ngon_scene(rng, n):
    """Boundary of a jittered n-gon: n closed edges minus n vertices."""
    center = rng.uniform(-0.5, 0.5, size=2)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    angles = phase + 2.0 * math.pi * np.arange(n) / n
    radius = rng.uniform(0.8, 1.5) * (1.0 + rng.uniform(-0.05, 0.05, size=n))
    pts = center + radius[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    terms = []
    for i in range(n):
        terms.append(_polytope(1, [pts[i], pts[(i + 1) % n]]))
        terms.append(_polytope(-1, [pts[i]]))
    return {"dimension": 2, "terms": terms}


def _lattice_boxes(rng, count):
    """Boxes on the 1/16 lattice of [-2, 3): fine enough that few boxes share
    a corner, so the cost of a scene depends on its size, not on chance."""
    low = rng.integers(-32, 32, size=(count, 2)) / 16.0
    width = rng.integers(4, 17, size=(count, 2)) / 16.0
    coef = rng.choice([-2, -1, 1, 2], size=count)
    return low, low + width, coef


def voxel_scene(rng, count):
    """Signed sum of half-open lattice boxes."""
    low, high, coef = _lattice_boxes(rng, count)
    return {"dimension": 2,
            "terms": [_box(c, lo, hi) for c, lo, hi in zip(coef, low, high)]}


def gamma_scene(rng, count):
    """Translated gamma triangles: solid right triangle minus its hypotenuse."""
    terms = []
    for _ in range(count):
        x0, y0 = rng.uniform(-1.5, 1.0, size=2)
        s = rng.uniform(0.2, 0.8)
        b = rng.uniform(0.5, 3.0)
        a, c = [x0 + s, y0], [x0, y0 + s * b]
        coef = int(rng.choice([-1, 1]))
        terms.append(_polytope(coef, [[x0, y0], a, c]))
        terms.append(_polytope(-coef, [a, c]))
    return {"dimension": 2, "terms": terms}


def ray_scene(rng, count, net):
    """Orthant-ray closure of lattice boxes, as the cone closure builds it.

    Each half-open box [a, b) closes to +[a1,a2] - [b1,a2] - [a1,b2] + [b1,b2]
    (rays [l, inf)^2), whose coefficients cancel at +inf.  With ``net`` one
    closed box is added, whose closure is a single ray, so the pushforward
    keeps a nonzero value at +inf.
    """
    low, high, coef = _lattice_boxes(rng, count)
    up = [INF, INF]
    terms = []
    for c, lo, hi in zip(coef, low, high):
        terms.append(_box(c, [lo[0], lo[1]], up))
        terms.append(_box(-c, [hi[0], lo[1]], up))
        terms.append(_box(-c, [lo[0], hi[1]], up))
        terms.append(_box(c, [hi[0], hi[1]], up))
    if net:
        terms.append(_box(1, rng.integers(-32, 32, size=2) / 16.0, up))
    return {"dimension": 2, "terms": terms}


def _scene(rng, kind, size):
    if kind == "ngon":
        return ngon_scene(rng, size)
    if kind == "voxel":
        return voxel_scene(rng, size)
    if kind == "gamma":
        return gamma_scene(rng, size)
    return ray_scene(rng, size, net=kind == "ray_net")


def scene_grid_round(rng, tag):
    order = rng.permutation(len(SCENE_DECK))
    families = list(rng.permutation(GENERAL_KERNELS))
    requests = []
    for i in order:
        kind, size = SCENE_DECK[i]
        ray = kind.startswith("ray")
        if kind == "ray_net":
            family = UNBOUNDED_KERNELS[int(rng.integers(len(UNBOUNDED_KERNELS)))]
        else:
            family = families.pop()
        kernel = _kernel_spec(rng, family)
        dirs = grid_directions(rng, ray)
        lo = rng.uniform(0.2, 0.6)
        hi = lo + rng.uniform(1.0, 2.0)
        name = f"{tag}-{i:02d}.json"
        argv = ["transform", "--input", name, "--kernel", kernel]
        for d in dirs:
            argv.append(f"--direction={float(d[0])!r},{float(d[1])!r}")
        argv.append(f"--radii={float(lo)!r}:{float(hi)!r}:{GRID_RADII}")
        requests.append({
            "kind": "transform", "class": f"{kind}{size}", "argv": argv,
            "files": {name: _scene(rng, kind, size)}, "scene": name,
            "kernel": kernel, "directions": dirs.tolist(),
            "radii": np.linspace(lo, hi, GRID_RADII).tolist(),
        })
    return requests


# -- mesh_curves ------------------------------------------------------------------

# Squares per side of the triangulated grid: (m+1)^2 vertices and about
# 6 m^2 cells, so 4 -> 97 cells and 12 -> 913 cells.
# The bessel requests on the 6x6 and 10x10 meshes take two centers, so
# that they cost about as much as the ect on the 10x10 mesh (ranks 7-9)
# and the bessel and sublevel requests on the 12x12 mesh (ranks 13-15).
MESH_DECK = ((4, 1), (6, 2), (8, 1), (10, 2), (12, 1))  # (m, bessel centers)
SUBLEVEL_KERNELS = ("laplace", "laplace:window", "ecb", "fourier:window",
                    "gr:window")


def grid_mesh(rng, m, with_values):
    """Jittered m x m grid of squares over the unit square, each split by a
    random diagonal; optionally a smooth per-vertex value field."""
    h = 1.0 / m
    ij = np.array([(i, j) for j in range(m + 1) for i in range(m + 1)], dtype=float)
    vertices = ij * h + rng.uniform(-0.25 * h, 0.25 * h, size=ij.shape)
    cells = []
    for j in range(m):
        for i in range(m):
            a = j * (m + 1) + i
            b, c, d = a + 1, a + m + 1, a + m + 2
            if rng.integers(2):
                cells += [[a, b, d], [a, d, c]]
            else:
                cells += [[a, b, c], [b, d, c]]
    data = {"vertices": vertices.tolist(), "cells": cells}
    if with_values:
        f = rng.uniform(1.0, 4.0, size=2)
        x, y = vertices[:, 0], vertices[:, 1]
        values = np.sin(f[0] * x + rng.uniform(0, 6)) * np.cos(f[1] * y)
        values += rng.uniform(-0.05, 0.05, size=len(values))
        data["values"] = values.tolist()
    return data


def mesh_curves_round(rng, tag):
    """One mesh per size, serving an ect, a sublevel and a bessel request.

    Meshes alternate between carrying a value field (sublevel along +1 and
    -1) and not (sublevel along circle directions), starting at random.
    """
    requests = []
    families = list(rng.permutation(SUBLEVEL_KERNELS))
    start = int(rng.integers(2))
    for k, (m, centers) in enumerate(MESH_DECK):
        with_values = (k + start) % 2 == 1
        name = f"{tag}-m{m}.json"
        mesh = grid_mesh(rng, m, with_values)
        files = {name: mesh}
        angle = rng.uniform(0.0, 2.0 * math.pi)
        xi = [math.cos(angle), math.sin(angle)]
        requests.append({
            "kind": "ect", "class": f"ect{m}", "mesh": name, "files": files,
            "xi": xi, "argv": ["ect", "--mesh", name, f"--xi={xi[0]!r},{xi[1]!r}"],
        })
        kernel = _kernel_spec(rng, families[k % len(families)])
        argv = ["sublevel", "--mesh", name, "--kernel", kernel]
        if with_values:
            directions = [[1.0], [-1.0]]
            argv += ["--direction=1", "--direction=-1"]
        else:
            count = 2
            angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
            directions = np.column_stack([np.cos(angles), np.sin(angles)]).tolist()
            argv += ["--directions", str(count)]
        requests.append({
            "kind": "sublevel", "class": f"sublevel{m}", "mesh": name,
            "files": files, "kernel": kernel, "directions": directions,
            "values": with_values, "argv": argv,
        })
        points = rng.uniform(-0.25, 1.25, size=(centers, 2)).tolist()
        argv = ["bessel", "--mesh", name]
        argv += [f"--center={c[0]!r},{c[1]!r}" for c in points]
        requests.append({
            "kind": "bessel", "class": f"bessel{m}", "mesh": name, "files": files,
            "centers": points, "argv": argv,
        })
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


# -- radon_recover ----------------------------------------------------------------

# (boxes, side).  A direction on the "up" side lies in the open positive
# quadrant and one on the "down" side in the open negative quadrant; both
# take the quadrature.  A "mixed" direction has components of both signs:
# the pushforward is an exact zero and no quadrature runs, so a mixed
# request costs about as much as an up or down one with two boxes fewer.
# Ranks 7-9 (about 0.17 s at the seed commit) are 5 up, 5 down and 7 mixed,
# and ranks 13-15 (about 0.53 s) are 9 up, 9 down and 11 mixed; see
# SCENE_DECK.  The cone-constructibility check that every request runs
# grows faster than linearly with the box count (about 0.5 s at 9 boxes,
# 2 s at 16), so the sizes stay small.
RADON_DECK = tuple((n, side) for n in (2, 3, 5, 7, 9) for side in ("up", "down"))
RADON_DECK += tuple((n, "mixed") for n in (2, 3, 7, 9, 11))
# a probe point is kept this far from every breakpoint of the pushforward,
# where the one-sided value is a matter of convention
RADON_CLEARANCE = 1e-6


def radon_direction(rng, side):
    """Unit direction at least 0.1 rad inside its open quadrant."""
    angle = rng.uniform(0.1, 0.5 * math.pi - 0.1)
    angle += {"up": 0.0, "down": math.pi, "mixed": 0.5 * math.pi}[side]
    return [math.cos(angle), math.sin(angle)]


def radon_probe(rng, scene, xi):
    """A point t inside the projected support of ``scene`` along ``xi`` and
    at least RADON_CLEARANCE from the projection of every box corner."""
    corners = []
    for term in scene["terms"]:
        (a1, a2), (b1, b2) = term["low"], term["high"]
        corners += [[a1, a2], [a1, b2], [b1, a2], [b1, b2]]
    proj = np.asarray(corners) @ np.asarray(xi)
    while True:
        t = float(rng.uniform(proj.min(), proj.max()))
        if np.min(np.abs(proj - t)) >= RADON_CLEARANCE:
            return t


def radon_recover_round(rng, tag):
    requests = []
    for size, side in RADON_DECK:
        name = f"{tag}-b{size}{side}.json"
        scene = voxel_scene(rng, size)
        xi = radon_direction(rng, side)
        t = radon_probe(rng, scene, xi)
        requests.append({
            "kind": "radon", "class": f"radon{size}{side}", "scene": name,
            "files": {name: scene}, "xi": xi, "t": t,
            "argv": ["radon-recover", "--input", name,
                     f"--xi={xi[0]!r},{xi[1]!r}", "--t", repr(t)],
        })
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


# -- verify_small -----------------------------------------------------------------

# The 22 suite names of ``eucalc verify`` at the time the benchmark was
# defined; a suite the program no longer knows fails its request.
SUITE_NAMES = (
    "geometry", "cf1d_roundtrip", "convolution_1d", "duality_pairing",
    "projection_window", "translation_phase", "direct_image", "fubini",
    "el_convolution", "el_cone_product", "ef_convolution", "voxel_laplace",
    "voxel_fourier", "pushforward_structure", "regularity_regions", "kernels",
    "sublevel_complex", "index_sublevel", "index_level", "index_gr",
    "bessel_dual", "radon",
)
# Three passes over the suites per round, each cut into five requests of
# 3-6 suites: 15 requests per round, like the other workloads.
VERIFY_PASSES = 3
VERIFY_GROUPS = (3, 4, 5, 6, 4)
VERIFY_CASES = (2, 3, 4, 5, 3)


def verify_small_round(rng, tag):
    requests = []
    for _ in range(VERIFY_PASSES):
        suites = list(rng.permutation(SUITE_NAMES))
        cases = list(rng.permutation(VERIFY_CASES))
        for size, n in zip(rng.permutation(VERIFY_GROUPS), cases):
            group, suites = suites[:size], suites[size:]
            argv = ["verify"]
            for s in group:
                argv += ["--suite", str(s)]
            argv += ["--cases", str(n), "--seed", str(int(rng.integers(1 << 30)))]
            requests.append({"kind": "verify", "class": f"verify{size}",
                             "suites": [str(s) for s in group], "argv": argv,
                             "files": {}})
    return requests


ROUND_BUILDERS = {
    "scene_grid": scene_grid_round,
    "mesh_curves": mesh_curves_round,
    "radon_recover": radon_recover_round,
    "verify_small": verify_small_round,
}


def make_round(workload, seed, index):
    """Requests of round ``index``: a pure function of (workload, seed, index)."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), int(index)])
    return ROUND_BUILDERS[workload](rng, f"r{index:03d}")

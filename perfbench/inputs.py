"""Seeded input generators and independent answer oracles.

Every generator is a pure function of ``(seed, round)``: the same seed
always yields the same tasks.  Query *structure* (how many bound pairs,
how many boxes and how they cluster) is fixed per workload, so the cost
of a round barely depends on the seed; the seed only salts constants and
coordinates.  That keeps run-to-run spread small while every run still
sends the program inputs it has never seen.

The oracles never call into ``repro``: box unions are measured exactly by
coordinate compression over ``Fraction`` coordinates, the quantified
shapes by projecting the vertices of their 4-D polytope with scipy, and
the decide sentences have a truth value known from how they were built.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Any

VARS = ("x", "y", "z")

# ---------------------------------------------------------------------------
# batch_compile: quantified conjunctive Fourier-Motzkin shapes
# ---------------------------------------------------------------------------

#: (lower/upper bound pairs on u, pairs on v) per template: 3 to 5 pairs.
COMPILE_CLASSES = ((1, 2), (2, 1), (2, 2), (2, 2), (3, 2), (2, 3))
#: Coefficient patterns are fixed (not drawn from --seed) so that every
#: seed compiles the same amount of Fourier-Motzkin work.
_TEMPLATE_SEED = 2024


def _compile_templates() -> list[list[tuple[str, str, list[tuple[str, int]]]]]:
    trng = random.Random(_TEMPLATE_SEED)
    templates = []
    for pairs_u, pairs_v in COMPILE_CLASSES:
        rows = []
        for var, deps, pairs in (("u", ("x", "y"), pairs_u),
                                 ("v", ("x", "y", "u"), pairs_v)):
            for side in ("lo", "hi"):
                for _ in range(pairs):
                    rows.append((var, side, [(d, trng.choice((-2, -1, 1, 2)))
                                             for d in deps]))
        templates.append(rows)
    return templates


COMPILE_TEMPLATES = _compile_templates()


def _linear(coeffs: list[tuple[str, int]], constant: Fraction) -> str:
    return " + ".join([f"{c}*{v}" for v, c in coeffs] + [str(constant)])


def compile_shape(template, rng: random.Random) -> tuple[str, str, dict]:
    """One salted shape: (formula, alpha-renamed reordered copy, oracle data).

    The constants are chosen around a random point ``p`` so that ``p`` is
    strictly inside every half-space: the 4-D polytope is full-dimensional
    and ``p`` is the interior point the scipy oracle needs.
    """
    point = {
        "x": Fraction(rng.randint(35, 65), 100),
        "y": Fraction(rng.randint(35, 65), 100),
        "u": Fraction(rng.randint(-20, 20), 100),
        "v": Fraction(rng.randint(-20, 20), 100),
    }
    halfspaces = []  # (coeffs over x,y,u,v, constant): sum <= constant
    bounds = []  # (side, var, coeffs, constant)
    for var, side, coeffs in template:
        value = sum(c * point[d] for d, c in coeffs)
        margin = Fraction(rng.randint(10, 30), 100)
        constant = point[var] - value + (margin if side == "hi" else -margin)
        bounds.append((side, var, coeffs, constant))
        sign = 1 if side == "hi" else -1  # hi: var - lin <= c; lo: lin - var <= -c
        row = {d: -sign * c for d, c in coeffs}
        row[var] = row.get(var, 0) + sign
        halfspaces.append((row, sign * constant))

    # A != atom far outside v's range: FM splits it into two disjuncts and
    # feasibility pruning drops the impossible one, leaving one cell.  It
    # removes no volume, so the oracle ignores it.
    far = Fraction(rng.randint(5000, 9000), 100)

    def atoms(names: dict[str, str]) -> list[str]:
        out = [f"{names['v']} != {far}"]
        for side, var, coeffs, constant in bounds:
            lin = _linear([(names.get(d, d), c) for d, c in coeffs], constant)
            out.append(f"{names[var]} <= {lin}" if side == "hi" else f"{lin} <= {names[var]}")
        return out

    formula = "EXISTS u . EXISTS v . (" + " AND ".join(atoms({"u": "u", "v": "v"})) + ")"
    reordered = atoms({"u": "s", "v": "t"})
    rng.shuffle(reordered)
    copy = "EXISTS s . EXISTS t . (" + " AND ".join(reordered) + ")"
    for var in ("x", "y"):  # the unit square the volume op clips to
        halfspaces.append(({var: -1}, Fraction(0)))
        halfspaces.append(({var: 1}, Fraction(1)))
    return formula, copy, {"halfspaces": halfspaces, "point": point}


def compile_round(seed: int, round_: int) -> tuple[list[dict], list[Any]]:
    """One ``run_batch`` manifest: every template once, each shape twice.

    The copy sits right after its original, so with two workers both
    copies start together and one worker adopts the other's compile
    through the plan store's claim protocol.
    """
    rng = random.Random(f"batch_compile:{seed}:{round_}")
    tasks: list[dict] = []
    expected: list[Any] = []
    for number, template in enumerate(COMPILE_TEMPLATES):
        formula, copy, oracle = compile_shape(template, rng)
        for suffix, text in (("a", formula), ("b", copy)):
            tasks.append({"id": f"r{round_}s{number}{suffix}", "op": "volume",
                          "formula": text})
            expected.append(oracle)
    return tasks, expected


def projected_area(oracle: dict) -> float:
    """Area of the (x, y) shadow of the 4-D polytope, by scipy/Qhull.

    The projection of a convex polytope is the convex hull of its
    projected vertices, so the area is that hull's 2-D volume.
    """
    import numpy as np
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    order = ("x", "y", "u", "v")
    rows = [
        [float(row.get(v, 0)) for v in order] + [-float(constant)]
        for row, constant in oracle["halfspaces"]
    ]
    interior = np.array([float(oracle["point"][v]) for v in order])
    vertices = HalfspaceIntersection(np.array(rows), interior).intersections
    return float(ConvexHull(vertices[:, :2]).volume)


# ---------------------------------------------------------------------------
# batch_union and serve_open: unions of axis-aligned boxes
# ---------------------------------------------------------------------------

#: (dimensions, boxes per cluster) per task of a round, heaviest first so
#: two workers finish a round together.  Boxes of one cluster share a
#: point; clusters sit in different grid cells, so their intersections are
#: empty.  Inclusion-exclusion thus tries 2^n subsets of which a fixed
#: number are non-empty, whatever the seed.
UNION_CLASSES = (
    (2, (2, 2, 2, 2, 2)),
    (3, (2, 2, 1)),
    (2, (3, 3, 2)),
    (2, (2, 2, 2, 2)),
    (3, (2, 1)),
    (2, (3, 2, 2)),
    (2, (2, 2, 2)),
)


def _frac(rng: random.Random, low: Fraction, high: Fraction, den: int = 256) -> Fraction:
    """A random rational in [low, high] with denominator *den*."""
    lo = -(-low.numerator * den // low.denominator)
    hi = high.numerator * den // high.denominator
    return Fraction(rng.randint(lo, hi), den)


#: Boxes stay this far (in units of the unit cube) from their cluster's
#: centre and from their grid cell's walls.
GAP = Fraction(1, 48)


def clustered_boxes(rng: random.Random, dims: int, clusters: tuple[int, ...]):
    """Boxes grouped in clusters around centres: ``(boxes, centres)``."""
    grid = 3 if dims == 2 else 2
    cells = list(itertools.product(range(grid), repeat=dims))
    rng.shuffle(cells)
    width = Fraction(1, grid)
    boxes, centers = [], []
    for size, cell in zip(clusters, cells):
        low = [Fraction(c, grid) for c in cell]
        center = [l + _frac(rng, width * 3 / 8, width * 5 / 8) for l in low]
        centers.append(center)
        for _ in range(size):
            boxes.append([
                (_frac(rng, low[d] + GAP, center[d] - GAP),
                 _frac(rng, center[d] + GAP, low[d] + width - GAP))
                for d in range(dims)
            ])
    return boxes, centers


def clip_around(rng: random.Random, centers) -> list[tuple[Fraction, Fraction]]:
    """A random clip box that keeps every cluster centre inside it.

    Clipping then changes the volume but not which intersections are
    empty, so the work per task stays the same whatever the seed.
    """
    clip = []
    for d in range(len(centers[0])):
        lowest = min(c[d] for c in centers)
        highest = max(c[d] for c in centers)
        clip.append((_frac(rng, Fraction(0), lowest - GAP),
                     _frac(rng, highest + GAP, Fraction(1))))
    return clip


def union_formula(boxes, dims: int) -> str:
    return " OR ".join(
        "(" + " AND ".join(f"{lo} <= {VARS[d]} AND {VARS[d]} <= {hi}"
                           for d, (lo, hi) in enumerate(box)) + ")"
        for box in boxes
    )


def union_volume_oracle(boxes, clip=None) -> Fraction:
    """Exact volume of a union of boxes (clipped), by coordinate compression."""
    dims = len(boxes[0]) if boxes else 0
    if clip is not None:
        boxes = [
            [(max(lo, clip[d][0]), min(hi, clip[d][1])) for d, (lo, hi) in enumerate(box)]
            for box in boxes
        ]
    boxes = [box for box in boxes if all(lo < hi for lo, hi in box)]
    if not boxes:
        return Fraction(0)
    axes = [sorted({b[d][0] for b in boxes} | {b[d][1] for b in boxes})
            for d in range(dims)]
    total = Fraction(0)
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        lows = [axes[d][i] for d, i in enumerate(cell)]
        highs = [axes[d][i + 1] for d, i in enumerate(cell)]
        if any(all(box[d][0] <= lows[d] and highs[d] <= box[d][1] for d in range(dims))
               for box in boxes):
            size = Fraction(1)
            for lo, hi in zip(lows, highs):
                size *= hi - lo
            total += size
    return total


def union_round(seed: int, round_: int) -> tuple[list[dict], list[Fraction]]:
    """One ``run_batch`` manifest of clipped box unions and their volumes."""
    rng = random.Random(f"batch_union:{seed}:{round_}")
    tasks, expected = [], []
    for number, (dims, clusters) in enumerate(UNION_CLASSES):
        boxes, centers = clustered_boxes(rng, dims, clusters)
        clip = clip_around(rng, centers)
        tasks.append({
            "id": f"r{round_}u{number}", "op": "volume",
            "formula": union_formula(boxes, dims),
            "box": [[str(lo), str(hi)] for lo, hi in clip],
        })
        expected.append(union_volume_oracle(boxes, clip))
    return tasks, expected


# ---------------------------------------------------------------------------
# batch: both kinds in one manifest
# ---------------------------------------------------------------------------

def batch_round(seed: int, round_: int) -> tuple[list[dict], list[Any]]:
    """One ``run_batch`` manifest: a compile round, then a union round.

    The compile pairs come first, lightest first, so both copies of a
    shape start together on the two workers; the unions follow heaviest
    first, so the workers finish the round together.  The expected
    answer is an oracle dict for a compile task, a ``Fraction`` for a
    union.
    """
    compile_tasks, compile_expected = compile_round(seed, round_)
    union_tasks, union_expected = union_round(seed, round_)
    return compile_tasks + union_tasks, compile_expected + union_expected


# ---------------------------------------------------------------------------
# serve_open: a skewed request mix over prewarmed plans
# ---------------------------------------------------------------------------

#: Clusters of boxes per hot shape (1 to 4 cells each), most popular
#: first; clustered like batch_union so every seed costs the same.
HOT_CLUSTERS = ((1,), (2,), (1, 1), (2, 1), (1, 1, 1, 1), (2, 1, 1))
#: Distinct one-box tail shapes: more than the 256-entry PlanCache, so
#: tail requests evict and re-fetch plans from the store.
TAIL_SHAPES = 400
DECIDE_SENTENCES = 4
#: Request mix: op name -> requests per deck of 20.  Requests are dealt
#: from shuffled decks rather than drawn independently, so every seed
#: sends the same proportions and only the order and the operands vary.
#:
#: The weights are assumptions: the repository has no recorded traffic
#: to derive them from.  Each is set by what it must exercise:
#:
#: - ``volume_fresh`` 7: the largest share, so clip plus a small exact
#:   union over a cached plan -- the path serve_open exists to measure --
#:   sets ``latency_p50_ms``.
#: - ``volume_repeat`` 3: enough memo hits that the cheapest path is in
#:   the sample, not so many that they pull the median below clip cost.
#: - ``tail`` 5: random picks from 400 tail shapes against a 256-entry
#:   cache per worker miss about two times in five, so roughly one
#:   request in ten evicts and re-fetches from the store: about 100 per
#:   1080-request window (45 s at 24 requests/s), enough for a stable ``store.fetch_ms_p50`` and non-zero
#:   ``cache.evictions``.
#: - ``approx`` 3: Monte Carlo is the costliest request (about 18 000
#:   samples at the epsilon and delta below); at 15% of requests it is
#:   more than ten times the 1% beyond ``latency_p99_ms``, so the p99
#:   reflects MC and store re-fetch rather than one unlucky request.
#: - ``decide`` 2: keeps the prewarmed decide path served; the smallest
#:   share because no serve_open metric is meant to track it.
MIX = (
    ("volume_fresh", 7),   # hot shape, fresh random clip box: memo miss
    ("volume_repeat", 3),  # hot shape, unit square again: memo hit
    ("tail", 5),           # tail shape, unit square: cache eviction path
    ("approx", 3),         # hot shape, Monte Carlo at APPROX_EPSILON
    ("decide", 2),         # prewarmed CAD decision
)
#: Hot-shape popularity per deck, roughly 1/rank (Zipf) -- also an
#: assumption, the usual model of query popularity; it makes the 1-cell
#: shapes most of the hot traffic while the 4-cell ones still appear.
HOT_POPULARITY = (12, 6, 4, 3, 2, 2)
#: The accuracy the approx requests ask for.
APPROX_EPSILON = 0.02
#: Small enough that a seeded estimate outside its Hoeffding radius is
#: practically impossible, so such a row is a real error.
APPROX_DELTA = 1e-6


def _deck(rng: random.Random, counts):
    """Endless shuffled decks holding ``count`` copies of each item."""
    cards = [item for item, count in counts for _ in range(count)]
    while True:
        rng.shuffle(cards)
        yield from cards


def _random_box(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    box = []
    for _ in range(2):
        side = _frac(rng, Fraction(15, 100), Fraction(50, 100))
        low = _frac(rng, Fraction(5, 100), Fraction(95, 100) - side)
        box.append((low, low + side))
    return box


def serve_shapes(seed: int) -> dict[str, Any]:
    """Hot shapes, tail shapes and decide sentences for one seed."""
    rng = random.Random(f"serve_open:{seed}:shapes")
    hot = [clustered_boxes(rng, 2, clusters) for clusters in HOT_CLUSTERS]
    tail, seen = [], set()
    while len(tail) < TAIL_SHAPES:
        box = _random_box(rng)
        key = tuple(box)
        if key not in seen:
            seen.add(key)
            tail.append(([box], None))
    decide = []
    for number in range(DECIDE_SENTENCES):
        a = _frac(rng, Fraction(1, 2), Fraction(4), den=16)
        b = _frac(rng, Fraction(1), Fraction(2), den=16)
        if number % 2 == 0:  # alternate true and false sentences
            b = max(b, Fraction(b.numerator + 1, 16))
            while b * b <= a:
                b += Fraction(1, 16)
        else:
            while b * b >= a:
                b -= Fraction(1, 16)
        decide.append((f"EXISTS t . (t*t = {a} AND 0 < t AND t < {b})", a < b * b))
    return {"hot": hot, "tail": tail, "decide": decide}


def serve_prewarm_tasks(shapes: dict[str, Any]) -> list[dict]:
    """Every plan the request list can touch, for ``compile_only`` prewarming."""
    tasks = [{"op": "volume", "formula": union_formula(boxes, 2)}
             for boxes, _ in shapes["hot"] + shapes["tail"]]
    tasks += [{"op": "decide", "formula": text} for text, _ in shapes["decide"]]
    return tasks


def serve_warmup(seed: int, shapes: dict[str, Any]) -> list[dict]:
    """Requests that fill every plan cache before the timed window.

    Two shuffled passes over the tail touch more distinct plans than one
    256-entry cache holds, in each of two workers, so the window starts
    in the steady state of a long-running server: caches full, and a
    tail request either hits or evicts.
    """
    rng = random.Random(f"serve_open:{seed}:warmup")
    texts = [union_formula(boxes, 2) for boxes, _ in shapes["hot"]]
    for _ in range(2):
        tail = [union_formula(boxes, 2) for boxes, _ in shapes["tail"]]
        rng.shuffle(tail)
        texts += tail
    payloads = [{"op": "volume", "formula": text} for text in texts]
    payloads += [{"op": "decide", "formula": text} for text, _ in shapes["decide"]]
    return [{"index": index, "seed": seed, **payload}
            for index, payload in enumerate(payloads)]


def serve_requests(seed: int, shapes: dict[str, Any], count: int) -> list[dict]:
    """The exact request list of one run, each with its expected answer.

    Each entry has ``payload`` (the JSON body sent) and ``expect``: an
    exact ``Fraction`` for volume and approx rows, a bool for decide.
    """
    rng = random.Random(f"serve_open:{seed}:requests")
    kinds = _deck(rng, MIX)
    hot_shapes = _deck(rng, list(enumerate(HOT_POPULARITY)))
    hot_volume = [union_volume_oracle(boxes, None) for boxes, _ in shapes["hot"]]
    requests = []
    for index in range(count):
        kind = next(kinds)
        payload: dict[str, Any] = {"index": index, "seed": seed}
        if kind == "decide":
            text, truth = rng.choice(shapes["decide"])
            payload.update(op="decide", formula=text)
            expect: Any = truth
        elif kind == "tail":
            boxes, _ = rng.choice(shapes["tail"])
            payload.update(op="volume", formula=union_formula(boxes, 2))
            expect = union_volume_oracle(boxes, None)
        else:
            shape = next(hot_shapes)
            boxes, centers = shapes["hot"][shape]
            payload["formula"] = union_formula(boxes, 2)
            expect = hot_volume[shape]
            if kind == "volume_fresh":
                clip = clip_around(rng, centers)
                payload.update(op="volume", box=[[str(lo), str(hi)] for lo, hi in clip])
                expect = union_volume_oracle(boxes, clip)
            elif kind == "volume_repeat":
                payload["op"] = "volume"
            else:
                payload.update(op="approx", epsilon=APPROX_EPSILON, delta=APPROX_DELTA)
        requests.append({"kind": kind, "payload": payload, "expect": expect})
    return requests


def check_row(op: str, record: dict, expect: Any) -> bool:
    """Whether one result record answers its request correctly."""
    if record.get("status") != "ok":
        return False
    if op == "decide":
        return record.get("value") is expect
    if op == "approx":
        return abs(float(record["value"]) - float(expect)) <= float(record["confidence_radius"])
    return Fraction(record["exact"]) == expect

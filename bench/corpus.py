"""Seeded benchmark inputs and the references they are checked against.

Nothing here imports mc_lab.  Every graph, graph6 string and expected
value is built from its definition, so a check never trusts the program
it checks.
"""

from __future__ import annotations

import random
from math import comb

# Connected labeled graphs on n vertices (OEIS A001187).
CONNECTED_LABELED = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def encode_graph6(n: int, edges) -> str:
    """Short-form graph6: the upper triangle column by column, 6 bits a byte."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bitlist = [1 if (u, v) in present else 0 for v in range(n) for u in range(v)]
    bitlist += [0] * (-len(bitlist) % 6)
    out = [chr(n + 63)]
    for i in range(0, len(bitlist), 6):
        val = 0
        for b in bitlist[i : i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of a short-form graph6 string."""
    n = ord(text[0]) - 63
    bitlist = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bitlist.extend(val >> (5 - j) & 1 for j in range(6))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return n, {p for p, b in zip(pairs, bitlist) if b}


def mono_connected(n: int, edges, colors) -> bool:
    """Whether every vertex pair lies in one component of a single color."""
    by_color: dict[int, list[tuple[int, int]]] = {}
    for (u, v), c in zip(edges, colors):
        by_color.setdefault(c, []).append((u, v))
    reach = [1 << u for u in range(n)]
    for class_edges in by_color.values():
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in class_edges:
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            parent[find(u)] = find(v)
        span: dict[int, int] = {}
        for x in parent:
            r = find(x)
            span[r] = span.get(r, 0) | 1 << x
        for x in parent:
            reach[x] |= span[find(x)]
    full = (1 << n) - 1
    return all(r == full for r in reach)


# ---------------------------------------------------------------------------
# certify-n6: the paper's closed forms for the forcing (f) and capping (g)
# thresholds, written out here so the check does not use mc_lab.formulas.


def _split_base(n: int, t: int) -> int:
    return comb(n - t, 2) + t * (n - t)


def forcing_table(n: int) -> dict[int, int]:
    """f(n, k): least m forcing mc >= k on every connected n-vertex graph."""
    top = comb(n, 2)
    return {
        k: n + k - 2 if k <= top - 2 * n + 4 else top - (top - k) // 2
        for k in range(1, top + 1)
    }


def capping_table(n: int) -> dict[int, int]:
    """g(n, k): greatest m keeping mc <= k on every connected n-vertex graph."""
    top = comb(n, 2)
    out = {top: top}
    for t in range(2, n):
        base = _split_base(n, t)
        for k in range(base - t + 1, base):
            out[k] = k + t - 1
        out[base] = base + t - 2
    return {k: out[k] for k in range(1, top + 1)}


# ---------------------------------------------------------------------------
# compute-dense: graph6 lines whose mc the upper bounds pin down.


def _anchored_edges(n: int, t: int) -> list[tuple[int, int]]:
    """K_n with t near-equal classes whose lowest vertex leaves its own class."""
    q, r = divmod(n, t)
    sizes = [q + 1] * r + [q] * (t - r)
    cut = set()
    start = 0
    for s in sizes:
        cut.update((start, v) for v in range(start + 1, start + s))
        start += s
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in cut]


def _relabeled(rng: random.Random, n: int, edges) -> str:
    perm = list(range(n))
    rng.shuffle(perm)
    return encode_graph6(n, [(perm[u], perm[v]) for u, v in edges])


def dense_corpus(seed: int, count: int) -> list[tuple[str, int]]:
    """(graph6, exact mc) pairs on 8..16 vertices, relabeled at random.

    Items alternate between K_n minus a k-edge matching (mc = C(n,2) - 2k)
    and anchored partitions with t >= n/2 classes (mc = C(n,2) - 2n + 2t);
    n cycles through 8..16 so every seed has the same size mix.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 8 + (i // 2) % 9
        if i % 2 == 0:
            k = rng.randint(1, n // 2)
            ends = rng.sample(range(n), 2 * k)
            missing = {(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])}
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in missing]
            out.append((_relabeled(rng, n, edges), comb(n, 2) - 2 * k))
        else:
            t = rng.randint(max(3, -(-n // 2)), n)
            out.append((_relabeled(rng, n, _anchored_edges(n, t)), comb(n, 2) - 2 * n + 2 * t))
    return out


# ---------------------------------------------------------------------------
# families-verify: family members, their graphs, and extremal color counts.


def family_corpus(seed: int, count: int) -> list[dict]:
    """Family members on 8..40 vertices: anchored, split and multipartite.

    Items cycle through the three families and n through 8..40, so every
    seed has the same size mix; the other parameters are drawn at random.
    Each item carries its graph6 and its extremal color count from the
    closed forms C(n,2) - 2n + 2t, m - t + 1 and m - n + r.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 8 + (i // 3) % 33
        family = ("anchored", "split", "multipartite")[i % 3]
        if family == "anchored":
            t = rng.randint(3, n)
            edges = _anchored_edges(n, t)
            item = {"t": t, "colors": comb(n, 2) - 2 * n + 2 * t}
        elif family == "split":
            t = rng.randint(2, n - 1)
            extra = rng.randint(0, t - 2)
            big = range(n - t, n)
            inside = [(u, v) for u in big for v in big if u < v][:extra]
            edges = [(u, v) for u in range(n - t) for v in range(u + 1, n)] + inside
            item = {"t": t, "extra": extra, "colors": len(edges) - t + 1}
        else:
            r = rng.randint(2, n)
            cuts = sorted(rng.sample(range(1, n), r - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            part = [j for j, s in enumerate(sizes) for _ in range(s)]
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
            item = {"sizes": sizes, "colors": len(edges) - n + r}
        item.update(family=family, n=n, graph6=encode_graph6(n, edges))
        out.append(item)
    return out

"""Reference loops for the finite-table engine: direct enumeration in the table's scalars.

scan.table_pair_analysis, scan.table_triple_analysis and
metric_core.validate_metric must give the same values, witnesses and
counts as these loops, with the same scalar types.
"""

from bisect import bisect_right
from itertools import combinations

from contraction_lab import scan
from contraction_lab.metric_core import ETA


def table_loops(kind, dist, nodes, images, eps, points, exact):
    """The table enumeration: one pure-Python pass over a table of scalars."""
    for a, b in combinations(range(len(nodes)), 2):
        if not dist[nodes[a]][nodes[b]] > 0:
            raise scan._nonpositive(points, a, b)
    best = [None] * (len(eps) + 1)
    counts = [0] * (len(eps) + 1)
    strict = None
    total = 0
    slack = 0 if exact else ETA
    for wit in combinations(range(len(nodes)), 2 if kind == "pairwise" else 3):
        ix = [nodes[w] for w in wit]
        tx = [images[i] for i in ix]
        if kind == "pairwise":
            measure = longest = dist[ix[0]][ix[1]]
            image_measure = dist[tx[0]][tx[1]]
        else:
            (i, j, k), (ti, tj, tk) = ix, tx
            dij, djk, dik = dist[i][j], dist[j][k], dist[i][k]
            measure, longest = dij + djk + dik, max(dij, djk, dik)
            image_measure = dist[ti][tj] + dist[tj][tk] + dist[ti][tk]
        b = bisect_right(eps, longest)
        counts[b] += 1
        total += 1
        if best[b] is None or scan._better(image_measure, measure, wit, *best[b]):
            best[b] = (image_measure, measure, wit)
        if strict is None and image_measure >= measure - slack:
            strict = (wit, measure, image_measure)
    return scan._finalize(kind, eps, best, counts, strict, total, points, exact)


def metric_violations_loops(dist_table, exact):
    """Per-axiom violation lists of a table of scalars, by direct enumeration."""
    n = len(dist_table)
    slack = 0 if exact else ETA
    diagonal = []
    positivity = []
    symmetry = []
    triangle = []
    for i in range(n):
        if abs(dist_table[i][i]) > slack:
            diagonal.append((i, dist_table[i][i]))
    for i, j in combinations(range(n), 2):
        if dist_table[i][j] <= slack:
            positivity.append((i, j, dist_table[i][j]))
        if abs(dist_table[i][j] - dist_table[j][i]) > slack:
            symmetry.append((i, j, dist_table[i][j], dist_table[j][i]))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            dij = dist_table[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dist_table[i][k] > dij + dist_table[j][k] + slack:
                    triangle.append((i, j, k, dist_table[i][k], dij + dist_table[j][k]))
    return {"diagonal": tuple(diagonal), "positivity": tuple(positivity),
            "symmetry": tuple(symmetry), "triangle": tuple(triangle)}

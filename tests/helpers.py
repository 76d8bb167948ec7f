"""Independent brute-force oracles used to derive and cross-check expected
test values. Nothing here reuses the package's ranking, adjacency, or clique
machinery beyond plain set arithmetic."""

from itertools import combinations

# Exhaustive desk-scale range used by the end-to-end checks.
ACCEPTANCE_PAIRS = [(n, m) for m in (2, 3, 4) for n in range(m + 2, 10)]
DEGENERATE_PAIRS = [(m + 1, m) for m in (2, 3, 4)]


def pascal_triangle(n_max):
    """Rows 0..n_max of Pascal's triangle, built by addition only."""
    tri = [[1]]
    for n in range(1, n_max + 1):
        prev = tri[-1]
        row = [1] * (n + 1)
        for k in range(1, n):
            row[k] = prev[k - 1] + prev[k]
        tri.append(row)
    return tri


def pascal_binomial(n, k):
    if k > n:
        return 0
    return pascal_triangle(n)[n][k]


def colex_subsets(n, k):
    """All k-subsets of {1..n} sorted colexicographically (largest first)."""
    return sorted(combinations(range(1, n + 1), k), key=lambda s: tuple(reversed(s)))


def swap_adjacent(a, b):
    """Adjacency of two equal-size labels: they share all but one element."""
    return len(set(a) & set(b)) == len(a) - 1


def swap_neighbors(u, n):
    """Every label with one element of ``u`` swapped for one of 1..n outside
    it, each built as a sorted tuple, in colex order."""
    inside = set(u)
    swaps = [
        tuple(sorted((inside - {x}) | {y}))
        for x in u
        for y in range(1, n + 1)
        if y not in inside
    ]
    return sorted(swaps, key=lambda s: tuple(reversed(s)))


def quadratic_edges(labels):
    """Every unordered adjacent pair, by scanning all label pairs."""
    return [
        (a, b)
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
        if swap_adjacent(a, b)
    ]


def naive_maximal_cliques(nv, adj):
    """Maximal cliques by full subset enumeration; only for tiny graphs."""
    out = []
    for mask in range(1, 1 << nv):
        verts = [i for i in range(nv) if (mask >> i) & 1]
        if not all(adj(i, j) for i, j in combinations(verts, 2)):
            continue
        inside = set(verts)
        if any(
            all(adj(u, w) for w in verts)
            for u in range(nv)
            if u not in inside
        ):
            continue
        out.append(tuple(verts))
    out.sort()
    return out


def naive_label_cliques(n, m):
    """Maximal cliques of the swap graph on m-subsets of {1..n}, as frozensets
    of labels. Subset enumeration; keep C(n, m) at 12 or below."""
    labels = colex_subsets(n, m)

    def adj(i, j):
        return swap_adjacent(labels[i], labels[j])

    return [
        frozenset(labels[i] for i in cl)
        for cl in naive_maximal_cliques(len(labels), adj)
    ]

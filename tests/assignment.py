"""The permanent as a maximum-weight assignment, in O(k^3): the oracle
that the resultant's slope merge is compared with, on the full Sylvester
band and on its tight entries alone, and a third permanent beside
`checks.permanent` and `checks.permanent_oracle` on general matrices."""

from fractions import Fraction

from supertrop.element import Element, ZERO
from supertrop.sparse import scaled


def permanent_assignment(rows: list[list]) -> Element:
    """Permanent of a square matrix of Elements in O(k^3).

    The grid goes on one integer scale (`scaled`) once, and its rows,
    Zero entries left out, go to the assignment engine `assignment`.
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("permanent requires a square matrix")
    return assignment(*scaled([{j: e for j, e in enumerate(row)
                                if e.mag is not None} for row in rows]))


def assignment(scale: int, rows: list[dict]) -> Element:
    """Permanent of a square matrix given as `scaled` rows, in O(k^3).

    Row i maps each column j of a non-Zero entry to (magnitude * scale,
    ghost), in ascending order of j; the ints are exact, so nothing can
    overflow.  The magnitude of the permanent is the largest total
    magnitude of a permutation that avoids Zero entries: a maximum-weight
    assignment, found as shortest augmenting paths with row and column
    potentials (Kuhn 1955) on cost = -magnitude.  The value is ZERO when
    no permutation avoids the Zero entries.

    The search is warm-started as in Jonker and Volgenant ("A shortest
    augmenting path algorithm for dense and sparse linear assignment
    problems", Computing 38, 1987): each column starts at minus its
    largest entry, each row's potential is its smallest reduced cost,
    which keeps the column potentials feasible, and each row takes its
    highest free column where its reduced cost is 0.  Only the rows left
    over run a Dijkstra search, which holds just the columns it has
    reached and moves the potentials once, on the rows it scanned and the
    columns it settled.

    The value is ghost when two permutations reach the maximum, or when
    the only one that does uses a ghost entry.  Every maximal permutation
    uses only entries that are tight under any optimal potentials, so a
    second one exists exactly when the tight entries hold a cycle that
    alternates with the one found (Butkovic, Max-linear Systems, 2010).
    """
    size = len(rows)
    if not all(rows):
        return ZERO
    # Reduced cost -m - u[i] - v[j] >= 0, and 0 on matched entries.
    top: list = [None] * size
    for row in rows:
        for j, (m, _) in row.items():
            t = top[j]
            if t is None or m > t:
                top[j] = m
    if None in top:
        return ZERO
    v = [-t for t in top]
    u = []
    col = [-1] * size
    owner = [-1] * size
    for i, row in enumerate(rows):
        best = max([m + v[j] for j, (m, _) in row.items()])
        u.append(-best)
        for j, (m, _) in reversed(row.items()):
            if owner[j] < 0 and m + v[j] == best:
                owner[j] = i
                col[i] = j
                break
    for s in range(size):
        if col[s] >= 0:
            continue
        us = u[s]
        dist = {j: -m - us - v[j] for j, (m, _) in rows[s].items()}
        via = dict.fromkeys(dist, s)
        settled: dict[int, int] = {}
        while True:
            if not dist:
                # No augmenting path: every permutation meets a Zero entry.
                return ZERO
            j = min(dist, key=dist.get)
            d = dist.pop(j)
            i = owner[j]
            if i < 0:
                break
            settled[j] = d
            base = d - u[i]
            for j2, (m, _) in rows[i].items():
                if j2 not in settled:
                    nd = base - m - v[j2]
                    cur = dist.get(j2)
                    if cur is None or nd < cur:
                        dist[j2] = nd
                        via[j2] = i
        u[s] += d
        for j2, dj in settled.items():
            u[owner[j2]] += d - dj
            v[j2] -= d - dj
        while True:
            i = via[j]
            owner[j] = i
            col[i], j = j, col[i]
            if i == s:
                break
    # Row i points to row r when i could take r's column at no loss; a
    # cycle is a second maximal permutation.  Peel rows nothing points to.
    succ = [[owner[j] for j, (m, _) in rows[i].items()
             if j != col[i] and -m == u[i] + v[j]] for i in range(size)]
    indegree = [0] * size
    for targets in succ:
        for r in targets:
            indegree[r] += 1
    free = [i for i in range(size) if indegree[i] == 0]
    peeled = 0
    while free:
        peeled += 1
        for r in succ[free.pop()]:
            indegree[r] -= 1
            if indegree[r] == 0:
                free.append(r)
    is_ghost = peeled < size or any(rows[i][col[i]][1] for i in range(size))
    total = sum(rows[i][col[i]][0] for i in range(size))
    return Element(Fraction(total, scale), is_ghost)

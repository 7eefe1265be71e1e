"""The finite reflection group of a set of mirror planes, as a Coxeter
matrix and the Cayley table of its elements."""

from __future__ import annotations

import numpy as np

from .errors import OrbitExplosion
from .lattice import _norm
from .mobius import PlaneR3


# Mirrors at angle θ give (s_i s_j)^m = 1 for m = round(π/θ) when π/θ is within ANGLE_BOUND
# of m.  The families' fitted angles miss by at most 5.6e-14, and 1 rad by 0.14.
ANGLE_BOUND = 1e-6


def _coxeter_matrix(planes: list[PlaneR3]) -> list[list[int]]:
    """m_ij = round(π/θ_ij) for the angle θ_ij between mirror planes i and j.
    OrbitExplosion unless each π/θ_ij is within ANGLE_BOUND of an integer, the normals
    are independent (so the planes share a point) and the form (-cos π/m_ij) is
    positive definite by more than 1e-12 (the Euclidean groups' singular forms compute
    within 1e-15 of 0): then the mirrors bound a chamber of the finite Coxeter group
    W(m), which they generate (Humphreys 1990, ch. 5-6)."""
    normals = np.reshape([p.normal for p in planes], (-1, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.pi / np.arctan2(_norm(np.cross(normals[:, None], normals)),
                                   np.abs(normals @ normals.T))
        np.fill_diagonal(ratio, 1.0)
        off = np.argwhere(~(np.abs(ratio - np.rint(ratio)) <= ANGLE_BOUND))
    for i, j in off[:1]:
        raise OrbitExplosion(f"mirrors {i} and {j}: pi/angle = {ratio[i, j]:.9g} is not "
                             f"within {ANGLE_BOUND:g} of an integer")
    if np.linalg.matrix_rank(normals) < len(planes):
        raise OrbitExplosion("the mirror normals are linearly dependent")
    m = np.rint(ratio).astype(int)
    if np.linalg.eigvalsh(-np.cos(np.pi / m)).min(initial=1.0) <= 1e-12:
        raise OrbitExplosion(f"the mirrors bound no finite Coxeter chamber: m = {m.tolist()}")
    return m.tolist()


def _cayley_table(m: list[list[int]]) -> list[list[int]]:
    """Todd-Coxeter (HLT) enumeration of <s_i | s_i^2, (s_i s_j)^m_ij>: table[c][i]
    is the coset c s_i, coset 0 the identity, and table[c] None for a coset
    merged into another.  Each s_i is an involution, so c s_i = d links
    d s_i = c.  A coincidence merges two cosets' rows, and entries are read
    through the merges (rep)."""
    n = len(m)
    relators = [[i, j] * m[i][j] for i in range(n) for j in range(i + 1, n)]
    table, alias = [[None] * n], [0]

    def rep(c):
        while c is not None and alias[c] != c:
            c = alias[c]
        return c

    def link(c, s, d):                      # d == len(table) defines a new coset
        if d == len(table):
            table.append([None] * n)
            alias.append(d)
        table[c][s], table[d][s] = d, c

    def merge(pairs):
        while pairs:
            c, d = sorted(map(rep, pairs.pop()))
            if c != d:
                alias[d] = c
                pairs += [(e, f) for e, f in zip(table[c], table[d]) if None not in (e, f)]
                table[c] = [f if e is None else e for e, f in zip(table[c], table[d])]

    c = 0
    while c < len(table):
        for word in relators:               # scan and fill, each end as far as it goes
            f, b, i, j = c, c, 0, len(word) - 1
            while alias[c] == c:
                while i <= j and table[f][word[i]] is not None:
                    f, i = rep(table[f][word[i]]), i + 1
                while j >= i and table[b][word[j]] is not None:
                    b, j = rep(table[b][word[j]]), j - 1
                if j < i:
                    merge([(f, b)])
                    break
                link(f, word[i], b if i == j else len(table))
        for s in range(n):
            if alias[c] == c and table[c][s] is None:
                link(c, s, len(table))
        c += 1
    return [[rep(d) for d in row] if alias[c] == c else None for c, row in enumerate(table)]

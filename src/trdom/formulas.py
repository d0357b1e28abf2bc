"""Closed-form domination numbers, starting-block sizes, and upper bounds.

Every result carries a ``theorem_tag`` naming the claim it evaluates, so
audit reports can attribute any discrepancy to a specific claim.  Tags
in use:

========== ============================================================
Thm1.1     paths: ceil((n + r - 1) / (2t - r))
Lemma3.1   2 x (2t - r) grid block dominated by 2 towers
Lemma3.2   m x (2t - r - (m - 2)) grid block dominated by 2 towers
Thm1.2     m x n grids, n >= block width and 2t - r > m - 1
Thm4.1     gamma_{2,1} of 2 x 2 x k equals k
Lemma4.2   2 x 2 x (2t - 2) block, r = 1
Lemma4.3   2 x 2 x (2t - r - 1) block
Thm4.4     any 3D box with the same dimension sum is a 2-tower block
Thm4.5     3 x (2t - r - 2) x 2 block, t > 2
Thm4.6     3 x 3 x (2t - 4) block, r = 1, t > 2
Thm4.7     3 x 3 x (2t - 5) block, r = 2, t > 2
Thm1.3     3D grids: 2 towers per covering block, value 2B
Thm1.4     king's grids: path formula when m <= 2(t - r) + 1
Lemma5.8   king starting block with n = 4t - 3r + 1 columns
Thm5.7     2 x n slant grids: ceil(2(n + r - 1) / (4t - 2r - 1))
Table1-*   slant grid tiling bounds per supported (t, r)
Cor6.1     cycles: path formula as an upper bound
Cor6.2     trees: sum of path values over a path decomposition
========== ============================================================

Operations validate their side conditions and raise
:class:`HypothesisViolated` instead of extrapolating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .graphs import DominationError, GraphInstance, int_from_json

EXACT = "exact-formula"
UPPER = "upper-bound"
ORACLE = "oracle-exact"


class HypothesisViolated(DominationError):
    """Parameters fall outside the side conditions of the claim."""


class UnsupportedShapeForR(DominationError):
    """The requested 3D block shape has no stated size for this r."""


class UnsupportedTRPair(DominationError):
    """No slant tiling row is stated for this (t, r) pair."""


@dataclass(frozen=True)
class GammaResult:
    """A domination value plus the kind and provenance of the claim."""

    value: int
    kind: str
    theorem_tag: str
    hypothesis_ok: bool = True
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "kind": self.kind,
            "theorem_tag": self.theorem_tag,
            "hypothesis_ok": self.hypothesis_ok,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class BlockDims:
    """Dimensions of a grid dominated by exactly two towers."""

    dims: Tuple[int, ...]
    towers_required: int = 2
    theorem_tag: str = ""

    def vertex_count(self) -> int:
        count = 1
        for d in self.dims:
            count *= d
        return count


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HypothesisViolated(message)


def path_gamma(n: int, t: int, r: int) -> GammaResult:
    """Domination number of P_n: ceil((n + r - 1) / (2t - r))."""
    _require(n >= 1, f"path needs n >= 1, got {n}")
    _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
    return GammaResult(_ceil_div(n + r - 1, 2 * t - r), EXACT, "Thm1.1")


def grid_block_width(m: int, t: int, r: int) -> int:
    """Column count 2t - r - (m - 2) of the m-row grid starting block."""
    return 2 * t - r - (m - 2)


def grid_starting_block_dims(m: int, t: int, r: int) -> BlockDims:
    """Dimensions (m, 2t - r - (m - 2)) of the 2-tower grid block."""
    _require(m >= 2, f"grid block needs m >= 2, got {m}")
    _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
    width = grid_block_width(m, t, r)
    _require(width > 0, f"block width 2t - r - (m - 2) = {width} must be positive")
    tag = "Lemma3.1" if m == 2 else "Lemma3.2"
    return BlockDims((m, width), theorem_tag=tag)


def grid_gamma(m: int, n: int, t: int, r: int) -> GammaResult:
    """Domination number of G_{m,n} within the stated parameter range."""
    _require(m >= 2, f"grid formula needs m >= 2, got {m}")
    _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
    _require(2 * t - r > m - 1, f"need 2t - r > m - 1 (got 2t-r={2 * t - r}, m={m})")
    width = grid_block_width(m, t, r)
    _require(n >= width, f"need n >= starting block width {width}, got n={n}")
    value = 2 + _ceil_div(n - width, width - 1)
    return GammaResult(value, EXACT, "Thm1.2")


def grid3d_2_2_k_gamma(k: int, t: int = 2, r: int = 1) -> GammaResult:
    """Stated value k for gamma_{2,1} of the 2 x 2 x k grid."""
    _require(k >= 1, f"need k >= 1, got {k}")
    _require((t, r) == (2, 1), f"claim covers only (t, r) = (2, 1), got ({t}, {r})")
    return GammaResult(k, EXACT, "Thm4.1")


_BLOCK3D_SHAPES = ("2x2", "3xN", "3x3")


def block3d_dims(shape: str, t: int, r: int) -> BlockDims:
    """Dimensions of the stated 3D starting block of the given shape."""
    if shape not in _BLOCK3D_SHAPES:
        raise UnsupportedShapeForR(f"unknown 3D block shape {shape!r}")
    _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
    if shape == "2x2":
        depth = 2 * t - r - 1
        _require(depth >= 1, f"2x2 block depth 2t - r - 1 = {depth} must be >= 1")
        tag = "Lemma4.2" if r == 1 else "Lemma4.3"
        return BlockDims((2, 2, depth), theorem_tag=tag)
    _require(t > 2, f"shape {shape} needs t > 2, got t={t}")
    if shape == "3xN":
        width = 2 * t - r - 2
        _require(width >= 1, f"3xN block width 2t - r - 2 = {width} must be >= 1")
        return BlockDims((3, width, 2), theorem_tag="Thm4.5")
    if r == 1:
        return BlockDims((3, 3, 2 * t - 4), theorem_tag="Thm4.6")
    if r == 2:
        return BlockDims((3, 3, 2 * t - 5), theorem_tag="Thm4.7")
    raise UnsupportedShapeForR(f"3x3 blocks are stated only for r in (1, 2), got r={r}")


def block3d_sum(t: int, r: int) -> int:
    """Dimension sum 2t - r + 3 shared by every stated 3D starting block."""
    return 2 * t - r + 3


def block3d_family(q: int, t: int | None = None, r: int | None = None) -> List[BlockDims]:
    """All dimension triples (up to permutation) with sum ``q``.

    Each triple inherits the 2-tower claim of the starting block with
    the same dimension sum.  When ``t`` and ``r`` are supplied the sum
    is checked against ``block3d_sum(t, r)``.
    """
    _require(q >= 3, f"dimension sum must be at least 3, got {q}")
    if t is not None and r is not None:
        _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
        expected = block3d_sum(t, r)
        _require(
            q == expected,
            f"sum {q} does not match the ({t},{r}) starting block sum {expected}",
        )
    triples = []
    for a in range(1, q // 3 + 1):
        for b in range(a, (q - a) // 2 + 1):
            c = q - a - b
            triples.append(BlockDims((a, b, c), theorem_tag="Thm4.4"))
    return triples


def grid3d_upper_bound(m: int, n: int, k: int, t: int, r: int, block: BlockDims) -> GammaResult:
    """Tiling bound 2B for G_{m,n,k} using the given starting block.

    B counts translated blocks in the orientation that minimizes it.
    """
    for d in (m, n, k):
        _require(d >= 1, f"grid3d dimensions must be positive, got {(m, n, k)}")
    _require(len(block.dims) == 3, f"need a 3D block, got dims {block.dims}")
    blocks = min(
        _ceil_div(m, bm) * _ceil_div(n, bn) * _ceil_div(k, bk)
        for bm, bn, bk in _orientations(block.dims)
    )
    return GammaResult(2 * blocks, UPPER, "Thm1.3")


def _orientations(dims: Tuple[int, int, int]):
    a, b, c = dims
    seen = []
    for perm in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        if perm not in seen:
            seen.append(perm)
    return seen


def king_gamma(m: int, n: int, t: int, r: int) -> GammaResult:
    """Domination number of K_{m,n} when every row is near the middle row."""
    _require(n >= 1 and m >= 1, f"king dims must be positive, got ({m}, {n})")
    _require(t > r >= 1, f"king formula needs t > r >= 1, got t={t}, r={r}")
    _require(
        m <= 2 * (t - r) + 1,
        f"king formula needs m <= 2(t - r) + 1 = {2 * (t - r) + 1}, got m={m}",
    )
    return GammaResult(_ceil_div(n + r - 1, 2 * t - r), EXACT, "Thm1.4")


def slant_gamma_2xn(n: int, t: int, r: int) -> GammaResult:
    """Domination number of S_{2,n}: ceil(2(n + r - 1) / (4t - 2r - 1))."""
    _require(n >= 1, f"need n >= 1, got {n}")
    _require(t > r >= 1, f"slant 2xn formula needs t > r >= 1, got t={t}, r={r}")
    return GammaResult(_ceil_div(2 * (n + r - 1), 4 * t - 2 * r - 1), EXACT, "Thm5.7")


@dataclass(frozen=True)
class SlantTileRow:
    """One row of the slant tiling table.

    ``height`` and ``width`` are the tile dimensions (the moduli of m
    and n); the bound for m = height*p, n = width*q is (coeff*q + 1)*p,
    and remainders are absorbed by moving to (p + 1, q + 1).
    """

    height: int
    width: int
    coeff: int

    def bound(self, p: int, q: int) -> int:
        return (self.coeff * q + 1) * p


SLANT_TILE_ROWS: Dict[Tuple[int, int], SlantTileRow] = {
    (2, 1): SlantTileRow(2, 8, 4),
    (3, 1): SlantTileRow(3, 20, 7),
    (3, 2): SlantTileRow(2, 14, 6),
    (4, 2): SlantTileRow(3, 15, 14),
    (4, 3): SlantTileRow(2, 22, 8),
    (5, 4): SlantTileRow(2, 32, 10),
}


def slant_tile_row(t: int, r: int) -> SlantTileRow:
    try:
        return SLANT_TILE_ROWS[(t, r)]
    except KeyError:
        raise UnsupportedTRPair(
            f"no slant tiling row for (t, r) = ({t}, {r}); "
            f"supported: {sorted(SLANT_TILE_ROWS)}"
        )


def slant_upper_bound(m: int, n: int, t: int, r: int) -> GammaResult:
    """Tiling bound for S_{m,n} from the table row for (t, r).

    With m = height*p + l and n = width*q + k, the exact-moduli bound is
    (coeff*q + 1)*p; if either remainder is nonzero the padded bound for
    (p + 1, q + 1) applies.  The table states the padded form only for
    both remainders nonzero; applying it when just one is nonzero is the
    conservative reading and is noted on the result.
    """
    _require(m >= 1 and n >= 1, f"slant dims must be positive, got ({m}, {n})")
    row = slant_tile_row(t, r)
    p, l = divmod(m, row.height)
    q, k = divmod(n, row.width)
    tag = f"Table1-({t},{r})"
    if l == 0 and k == 0:
        return GammaResult(row.bound(p, q), UPPER, tag)
    note = "" if (l > 0 and k > 0) else "single-sided remainder, padded bound applied"
    return GammaResult(row.bound(p + 1, q + 1), UPPER, tag, note=note)


def cycle_upper_bound(n: int, t: int, r: int) -> GammaResult:
    """Path-formula upper bound for the cycle C_n."""
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
    return GammaResult(_ceil_div(n + r - 1, 2 * t - r), UPPER, "Cor6.1")


class NotAPathDecomposition(DominationError):
    """The given parts do not decompose the tree's edges into paths."""


def tree_decomposition_bound(
    tree: GraphInstance,
    decomposition: Sequence[Sequence[int]],
    t: int,
    r: int,
) -> GammaResult:
    """Sum of path values over an edge-disjoint path decomposition.

    Each part is a vertex sequence tracing a path in the tree; together
    the parts must cover every edge exactly once.
    """
    if tree.family.kind not in ("tree", "path"):
        raise NotAPathDecomposition(
            f"expected a tree or path instance, got {tree.family.kind}"
        )
    _require(t >= r >= 1, f"need t >= r >= 1, got t={t}, r={r}")
    if not isinstance(decomposition, (list, tuple)):
        raise NotAPathDecomposition(f"decomposition {decomposition!r} is not a list of parts")
    tree_edges = {
        frozenset((u, v)) for u in tree.vertices for v in tree.neighbors(u)
    }
    seen: set = set()
    total = 0
    for part in decomposition:
        if not isinstance(part, (list, tuple)):
            raise NotAPathDecomposition(f"part {part!r} is not a list of vertices")
        part = [int_from_json(v, "decomposition vertex", NotAPathDecomposition) for v in part]
        if len(part) < 2:
            raise NotAPathDecomposition(f"part {part} has no edges")
        if len(set(part)) != len(part):
            raise NotAPathDecomposition(f"part {part} revisits a vertex")
        for u, v in zip(part, part[1:]):
            edge = frozenset((u, v))
            if edge not in tree_edges:
                raise NotAPathDecomposition(f"({u}, {v}) is not a tree edge")
            if edge in seen:
                raise NotAPathDecomposition(f"edge ({u}, {v}) covered twice")
            seen.add(edge)
        total += path_gamma(len(part), t, r).value
    if seen != tree_edges:
        missing = sorted(tuple(sorted(e)) for e in tree_edges - seen)
        raise NotAPathDecomposition(f"edges not covered: {missing}")
    return GammaResult(total, UPPER, "Cor6.2")

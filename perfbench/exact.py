"""Exact arithmetic the benchmark uses to build inputs and check answers.

It shares no code with ``dgdeform``: values are plain ``Fraction`` (over Q)
or ``int`` residues in [0, p) (over GF(p)), and a map between graded modules
is a column dict ``{source index: {target index: value}}`` with no zero
entries, the same coordinates as ``GradedMap.columns``.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Q when ``p`` is None, else GF(p)."""

    def __init__(self, p: int | None = None):
        self.p = p
        self.one = self.canon(1)

    def canon(self, x):
        return Fraction(x) if self.p is None else int(x) % self.p

    def random_nonzero(self, rng, span: int = 3):
        """A nonzero value: a small signed fraction over Q, a residue over GF(p)."""
        if self.p is not None:
            return rng.randrange(1, self.p)
        num = rng.choice([n for n in range(-span, span + 1) if n])
        return Fraction(num, rng.randint(1, 2))

    def name(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    def cli_name(self) -> str:
        return "Q" if self.p is None else f"GF:{self.p}"


def _put(col: dict, i: int, v, fld: Field) -> None:
    s = fld.canon(col.get(i, 0) + v)
    if s:
        col[i] = s
    else:
        col.pop(i, None)


def add(a: dict, b: dict, fld: Field, scale=1) -> dict:
    """a + scale * b."""
    out = {j: dict(col) for j, col in a.items()}
    for j, col in b.items():
        dst = out.setdefault(j, {})
        for i, v in col.items():
            _put(dst, i, scale * v, fld)
        if not dst:
            del out[j]
    return out


def mul(a: dict, b: dict, fld: Field) -> dict:
    """The composite a after b."""
    out = {}
    for j, bcol in b.items():
        dst: dict = {}
        for k, bv in bcol.items():
            for i, av in a.get(k, {}).items():
                _put(dst, i, av * bv, fld)
        if dst:
            out[j] = dst
    return out


def identity(n: int, fld: Field) -> dict:
    return {i: {i: fld.one} for i in range(n)}


def series_mul(a: list, b: list, fld: Field) -> list:
    """Truncated Cauchy product of two equal-length lists of maps."""
    out = []
    for k in range(len(a)):
        acc: dict = {}
        for i in range(k + 1):
            acc = add(acc, mul(a[i], b[k - i], fld), fld)
        out.append(acc)
    return out


def series_inverse(a: list, fld: Field) -> list:
    """Inverse of a series with constant term Id: inv_k = -sum_{i>=1} a_i inv_{k-i}."""
    inv = [a[0]]
    for k in range(1, len(a)):
        acc: dict = {}
        for i in range(1, k + 1):
            acc = add(acc, mul(a[i], inv[k - i], fld), fld)
        inv.append(add({}, acc, fld, scale=-1))
    return inv


def coboundary(f: dict, d_src: dict, d_tgt: dict, p: int, fld: Field) -> dict:
    """delta(f) = d_M f - (-1)^p f d_V for a p-cochain f: V -> M."""
    return add(mul(d_tgt, f, fld), mul(f, d_src, fld), fld, scale=1 if p % 2 else -1)


def witness_defect(combo: dict, d_src: dict, d_tgt: dict, p: int, fld: Field) -> dict:
    """The left side of a combination of the equations delta^p(f) = g.

    ``combo`` maps codomain pairs (j, i) of C^{p+1} to weights.  The entry of
    delta(E_{i'j'}) at (j, i) is [j = j'] d_M[i <- i'] - (-1)^p [i = i'] d_V[j' <- j],
    so the weighted sum of rows is a functional on C^p; it is returned as
    ``{(j', i'): value}`` and is empty exactly when the combination kills
    every left side.
    """
    sign = -1 if p % 2 == 0 else 1
    tgt_rows: dict = {}
    for i_src, col in d_tgt.items():
        for i, v in col.items():
            tgt_rows.setdefault(i, {})[i_src] = v
    out: dict = {}
    for (j, i), c in combo.items():
        for i2, v in tgt_rows.get(i, {}).items():
            _put(out, (j, i2), c * v, fld)
        for j2, v in d_src.get(j, {}).items():
            _put(out, (j2, i), sign * c * v, fld)
    return out


def render_map(m: dict, src_names: list, tgt_names: list, fld: Field) -> str:
    """Canonical map text: ``c*x_i d/d x_j`` sorted by (source, target)
    index, coefficient 1 omitted and -1 as a bare minus, Q values negative
    below zero and GF(p) residues never negative."""
    if not m:
        return "0"
    out = []
    for j in sorted(m):
        for i in sorted(m[j]):
            c = m[j][i]
            neg = fld.p is None and c < 0
            mag = -c if neg else c
            body = f"{tgt_names[i]} d/d {src_names[j]}"
            if mag != 1:
                body = f"{mag}*{body}"
            if not out:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f" {'-' if neg else '+'} {body}")
    return "".join(out)

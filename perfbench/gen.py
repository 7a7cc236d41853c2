"""Seeded input generator with known answers.

Every function takes a ``random.Random`` and returns plain data (names,
degrees and column dicts of :mod:`exact`) together with the answer it knows
by construction.  Nothing here imports ``dgdeform``: the library only ever
sees the inputs built from this data.
"""

from __future__ import annotations

from . import exact


class Cx:
    """A complex built as a direct sum of two-term exact pairs ``top -> bottom``
    and singletons, optionally conjugated by a degree-0 unitriangular ``U``.

    ``d`` is the (conjugated) differential; ``U``/``U_inv`` transport frame-0
    cochains into it.  ``h`` maps a degree to its homology dimension, which
    is the number of singletons there, since every pair is exact.
    """

    def __init__(self, name, names, degrees, d, U, U_inv, h, singles):
        self.name = name
        self.names = names
        self.degrees = degrees
        self.d = d
        self.U = U
        self.U_inv = U_inv
        self.h = h
        self.singles = singles


def _unitriangular(rng, fld, degrees, density):
    """A degree-0 automorphism I + N, N strictly upper triangular inside each
    degree block with entries +-1 (so U^-1 is integral too), and its inverse."""
    by_deg: dict = {}
    for i, q in enumerate(degrees):
        by_deg.setdefault(q, []).append(i)
    n_map: dict = {}
    for idx in by_deg.values():
        for b_pos, b in enumerate(idx):
            for a in idx[:b_pos]:
                if rng.random() < density:
                    n_map.setdefault(b, {})[a] = fld.canon(rng.choice((1, -1)))
    n = len(degrees)
    u = exact.add(exact.identity(n, fld), n_map, fld)
    # (I + N)^-1 = sum_k (-N)^k; N is nilpotent of index at most the block size
    u_inv = exact.identity(n, fld)
    power = exact.identity(n, fld)
    for _ in range(max(len(idx) for idx in by_deg.values())):
        power = exact.mul(n_map, power, fld)
        power = exact.add({}, power, fld, scale=-1)
        if not power:
            break
        u_inv = exact.add(u_inv, power, fld)
    return u, u_inv


def pair_complex(rng, fld, name, prefix, pairs, singles, conjugate=False, density=0.5):
    """``pairs[q]`` exact pairs with top in degree q, ``singles[q]`` singletons
    in degree q; the declaration order is a seeded shuffle."""
    gens = []  # (degree, role, partner key)
    for q, count in sorted(pairs.items()):
        for k in range(count):
            gens.append((q, "top", (q, k)))
            gens.append((q - 1, "bottom", (q, k)))
    for q, count in sorted(singles.items()):
        gens.extend((q, "single", None) for _ in range(count))
    rng.shuffle(gens)
    degrees = [g[0] for g in gens]
    names = [f"{prefix}{i}" for i in range(len(gens))]
    bottoms = {g[2]: i for i, g in enumerate(gens) if g[1] == "bottom"}
    d = {}
    single_idx: dict = {}
    for i, (q, role, key) in enumerate(gens):
        if role == "top":
            d[i] = {bottoms[key]: fld.random_nonzero(rng)}
        elif role == "single":
            single_idx.setdefault(q, []).append(i)
    h = {q: c for q, c in singles.items() if c}
    if not conjugate:
        return Cx(name, names, degrees, d, None, None, h, single_idx)
    u, u_inv = _unitriangular(rng, fld, degrees, density)
    d = exact.mul(exact.mul(u, d, fld), u_inv, fld)
    return Cx(name, names, degrees, d, u, u_inv, h, single_idx)


def kunneth(v: Cx, m: Cx, p: int) -> int:
    """dim H^p(V; M) = sum_q h_q(V) * h_{q-p}(M) over a field."""
    return sum(hv * m.h.get(q - p, 0) for q, hv in v.h.items())


def random_cochain(rng, fld, v: Cx, m: Cx, p: int, density: float) -> dict:
    """A random p-cochain: entries x_j -> y_i with |y_i| = |x_j| - p."""
    by_deg: dict = {}
    for i, q in enumerate(m.degrees):
        by_deg.setdefault(q, []).append(i)
    f = {}
    for j, q in enumerate(v.degrees):
        col = {i: fld.random_nonzero(rng) for i in by_deg.get(q - p, ()) if rng.random() < density}
        if col:
            f[j] = col
    return f


def _transport(f: dict, v: Cx, m: Cx, fld) -> dict:
    if m.U is not None:
        f = exact.mul(m.U, f, fld)
    if v.U_inv is not None:
        f = exact.mul(f, v.U_inv, fld)
    return f


def class_cocycle(rng, fld, v: Cx, m: Cx, p: int) -> dict | None:
    """A p-cocycle with a nonzero class: one singleton of V sent to one
    singleton of M, carried into the conjugated frame.  None when the
    Kunneth formula leaves H^p(V; M) zero."""
    options = [(q, q - p) for q in v.singles if q - p in m.singles]
    if not options:
        return None
    q, r = rng.choice(options)
    z = {rng.choice(v.singles[q]): {rng.choice(m.singles[r]): fld.random_nonzero(rng)}}
    return _transport(z, v, m, fld)


# -- the base complex of the example family and its gauge-trivial deformations --


def base_module(truncation: int):
    """Names and degrees of x_1 .. x_{2T}, with |x_{2p-1}| = |x_{2p}| = p."""
    top = 2 * truncation
    return [f"x{i}" for i in range(1, top + 1)], [(i + 1) // 2 for i in range(1, top + 1)]


def base_differential(truncation: int, fld) -> dict:
    """d = sum_i x_{6i-5} d/d x_{6i-3}, in 0-based indices."""
    top = 2 * truncation
    d = {}
    i = 1
    while 6 * i - 3 <= top:
        d[6 * i - 4] = {6 * i - 6: fld.one}
        i += 1
    return d


def gauge_trivial(rng, fld, truncation: int, order: int, density: float = 0.4):
    """Coefficients d, c_1, .., c_order of phi_t d phi_t^-1, where
    phi_t = Id + sum_k t^k phi_k with random degree-0 phi_k."""
    _, degrees = base_module(truncation)
    n = len(degrees)
    phi = [exact.identity(n, fld)]
    for _ in range(order):
        m = {}
        for j in range(n):
            col = {
                i: fld.random_nonzero(rng)
                for i in range(n)
                if degrees[i] == degrees[j] and rng.random() < density
            }
            if col:
                m[j] = col
        phi.append(m)
    d = base_differential(truncation, fld)
    d_series = [d] + [{} for _ in range(order)]
    phi_inv = exact.series_inverse(phi, fld)
    return exact.series_mul(exact.series_mul(phi, d_series, fld), phi_inv, fld)


# -- .dgm documents -------------------------------------------------------------


def random_document(rng, fld, dim: int, n_maps: int, density: float = 0.3):
    """A module with ``dim`` generators in degrees 0..4 and ``n_maps`` maps
    named m0, m1, .. of degree -1 or 0; the deformation block lists every
    degree -1 map.  Returns (names, degrees, [(map name, degree, cols)],
    deformation names)."""
    names = [f"g{i}" for i in range(dim)]
    degrees = [rng.randrange(5) for _ in range(dim)]
    maps = []
    for k in range(n_maps):
        deg = rng.choice((-1, 0))
        cols = {}
        for j in range(dim):
            col = {
                i: fld.random_nonzero(rng, span=7)
                for i in range(dim)
                if degrees[i] == degrees[j] + deg and rng.random() < density
            }
            if col:
                cols[j] = col
        maps.append((f"m{k}", deg, cols))
    deformation = [name for name, deg, _ in maps if deg == -1]
    return names, degrees, maps, deformation


def write_document(fld, names, degrees, maps) -> str:
    """.dgm text in a form of the benchmark's own choosing (not the canonical
    rendering): every coefficient written out, terms in insertion order."""
    head = "field Q" if fld.p is None else f"field GF {fld.p}"
    basis = ", ".join(f"{n} : {q}" for n, q in zip(names, degrees))
    out = [head, f"module W {{ basis {basis}; }}"]
    for name, deg, cols in maps:
        out.append(f"map {name} degree {deg} {{")
        for j, col in cols.items():
            terms = " + ".join(f"{v}*{names[i]}" for i, v in col.items())
            out.append(f"  {names[j]} -> {terms};")
        out.append("}")
    return "\n".join(out) + "\n"

"""Independent reference computations for the test suite.

Everything here is written against plain dict tables with explicit loops and
no imports from the package under test, so agreement is evidence rather than
tautology.
"""
from __future__ import annotations

# ---------------------------------------------------------------------------
# arity oracle


def arity_fits(mediators, k, chain):
    """Whether hand-built mediator specs fit a scenario of `k` mediators,
    chained or not, by walking the tree.

    A spec without ``parents`` is a fixed level and fits any slot.  A
    counterfactual spec in slot i carries i - 1 parent specs in a chain and
    none elsewhere, and its j-th parent must fit slot j in turn.
    """

    def fits(spec, slot):
        if not hasattr(spec, "parents"):
            return True
        expected = slot - 1 if chain else 0
        return len(spec.parents) == expected and all(
            fits(parent, j) for j, parent in enumerate(spec.parents, start=1)
        )

    return len(mediators) == k and all(fits(spec, i) for i, spec in enumerate(mediators, start=1))


# ---------------------------------------------------------------------------
# enumeration oracle


def seq2_mean(ymean, pm1, pm2, e_y, spec1, spec2):
    """E[Y(e_y, spec1, spec2)] for a two-mediator chain model, by triple loop.

    spec1 is ("fixed", level) or ("nat", exposure_level); likewise spec2,
    whose natural parent is the shared m1 summation index.
    """
    m1_levels = list(next(iter(pm1.values())).keys())
    m2_levels = list(next(iter(next(iter(pm2.values())).values())).keys())
    total = 0.0
    for m1 in m1_levels:
        if spec1[0] == "fixed":
            w1 = 1.0 if m1 == spec1[1] else 0.0
        else:
            w1 = pm1[spec1[1]][m1]
        for m2 in m2_levels:
            if spec2[0] == "fixed":
                w2 = 1.0 if m2 == spec2[1] else 0.0
            else:
                w2 = pm2[spec2[1]][m1][m2]
            total += w1 * w2 * ymean[e_y][m1][m2]
    return total


def single_mean(ymean, pm1, e_y, spec1):
    m1_levels = list(next(iter(pm1.values())).keys())
    total = 0.0
    for m1 in m1_levels:
        if spec1[0] == "fixed":
            w1 = 1.0 if m1 == spec1[1] else 0.0
        else:
            w1 = pm1[spec1[1]][m1]
        total += w1 * ymean[e_y][m1]
    return total


def seq2_worlds(ymean, pm1, pm2, a=1, a_star=0):
    """W1..W8: the eight fully natural one-path expectations."""
    triples = [
        (a, a, a),
        (a, a_star, a),
        (a, a, a_star),
        (a_star, a, a),
        (a_star, a, a_star),
        (a_star, a_star, a),
        (a, a_star, a_star),
        (a_star, a_star, a_star),
    ]
    return [
        seq2_mean(ymean, pm1, pm2, ey, ("nat", e1), ("nat", e2))
        for ey, e2, e1 in triples
    ]


def random_seq2_tables(rng, ka=2, k1=2, k2=2, levels=None):
    """Random strictly positive tables over integer levels."""
    a_levels = levels or list(range(ka))
    m1_levels = list(range(k1))
    m2_levels = list(range(k2))

    def row(keys):
        raw = rng.uniform(0.05, 1.0, size=len(keys))
        raw /= raw.sum()
        return dict(zip(keys, raw.tolist()))

    pm1 = {a: row(m1_levels) for a in a_levels}
    pm2 = {a: {m1: row(m2_levels) for m1 in m1_levels} for a in a_levels}
    ymean = {
        a: {
            m1: {m2: float(rng.uniform(-3, 3)) for m2 in m2_levels}
            for m1 in m1_levels
        }
        for a in a_levels
    }
    return pm1, pm2, ymean


# ---------------------------------------------------------------------------
# plug-in oracle


def plugin_seq2_tables(exposure, m1, m2, outcome, a_levels, m1_levels, m2_levels):
    """Chain plug-in tables by a per-row dict tally over the given levels.

    Returns (pm1, pm2, ymean, empty); `empty` lists the cells without rows in
    the given levels' order, in the form `EmptyCell.cells` uses.
    """
    n_a = {a: 0 for a in a_levels}
    n_am1 = {(a, v1): 0 for a in a_levels for v1 in m1_levels}
    n_cell = {(a, v1, v2): 0 for a in a_levels for v1 in m1_levels for v2 in m2_levels}
    y_cell = dict.fromkeys(n_cell, 0.0)
    for a, v1, v2, y in zip(exposure.tolist(), m1.tolist(), m2.tolist(), outcome.tolist()):
        n_a[a] += 1
        n_am1[a, v1] += 1
        n_cell[a, v1, v2] += 1
        y_cell[a, v1, v2] += y
    empty = []
    for a in a_levels:
        if n_a[a] == 0:
            empty.append((("A", a),))
            continue
        for v1 in m1_levels:
            if n_am1[a, v1] == 0:
                empty.append((("A", a), ("M1", v1)))
                continue
            for v2 in m2_levels:
                if n_cell[a, v1, v2] == 0:
                    empty.append((("A", a), ("M1", v1), ("M2", v2)))
    if empty:
        return None, None, None, empty
    pm1 = {a: {v1: n_am1[a, v1] / n_a[a] for v1 in m1_levels} for a in a_levels}
    pm2 = {
        a: {
            v1: {v2: n_cell[a, v1, v2] / n_am1[a, v1] for v2 in m2_levels}
            for v1 in m1_levels
        }
        for a in a_levels
    }
    ymean = {
        a: {
            v1: {v2: y_cell[a, v1, v2] / n_cell[a, v1, v2] for v2 in m2_levels}
            for v1 in m1_levels
        }
        for a in a_levels
    }
    return pm1, pm2, ymean, empty


# ---------------------------------------------------------------------------
# hand-derived seq2 reports, independent of the package's component catalogs


def plugin_seq2_sums(ymean, pm1, pm2, q):
    """The eleven seq2 report rows of a categorical model by literal double sums.

    Each summed component has its own double sum over the (m1, m2) support;
    PDE is CDE plus the two reference interaction rows and TE is its own
    two-world sum.  `q` carries a, a_star, m1_star and m2_star as levels.
    """
    p, a, a_star, m1s, m2s = ymean, q.a, q.a_star, q.m1_star, q.m2_star
    rows = dict.fromkeys(
        ("INT_ref-AM2+AM1M2", "NatINT_AM1", "NatINT_AM2", "NatINT_AM1M2",
         "NatINT_M1M2", "PIE_M1", "PIE_M2", "TE"),
        0.0,
    )
    rows["CDE"] = p[a][m1s][m2s] - p[a_star][m1s][m2s]
    rows["INT_ref-AM1"] = 0.0
    for m1 in pm1[a]:
        w1_ref = pm1[a_star][m1]
        d1 = pm1[a][m1] - w1_ref
        rows["INT_ref-AM1"] += (
            p[a][m1][m2s] - p[a_star][m1][m2s] - p[a][m1s][m2s] + p[a_star][m1s][m2s]
        ) * w1_ref
        for m2 in pm2[a][m1]:
            y_trt, y_ref = p[a][m1][m2], p[a_star][m1][m2]
            w2_ref = pm2[a_star][m1][m2]
            d2 = pm2[a][m1][m2] - w2_ref
            rows["INT_ref-AM2+AM1M2"] += (
                y_trt - p[a][m1][m2s] - y_ref + p[a_star][m1][m2s]
            ) * w1_ref * w2_ref
            rows["NatINT_AM1"] += (y_trt - y_ref) * w2_ref * d1
            rows["NatINT_AM2"] += (y_trt - y_ref) * w1_ref * d2
            rows["NatINT_AM1M2"] += (y_trt - y_ref) * d1 * d2
            rows["NatINT_M1M2"] += y_ref * d1 * d2
            rows["PIE_M1"] += y_ref * w2_ref * d1
            rows["PIE_M2"] += y_ref * w1_ref * d2
            rows["TE"] += y_trt * pm1[a][m1] * pm2[a][m1][m2] - y_ref * w1_ref * w2_ref
    rows["PDE"] = rows["CDE"] + rows["INT_ref-AM1"] + rows["INT_ref-AM2+AM1M2"]
    return rows


def linear_closed_forms(params, q, c=()):
    """The eleven seq2 report rows under the Gaussian-linear chain model.

    Each row is its own polynomial display in the coefficients: CDE and the
    reference interaction rows as products involving m1* and m2*, the
    natural interaction and pure indirect rows as polynomials, PDE as CDE
    plus the reference rows, TE as the difference of the two corner worlds.
    `params` carries theta, beta, gamma, their covariate vectors theta_c,
    beta_c, gamma_c, and sigma2_m1; `c` is the covariate profile.
    """
    t, b, g, sig2 = params.theta, params.beta, params.gamma, params.sigma2_m1
    tc, bc, gc = (
        sum(u * v for u, v in zip(coefs, c))
        for coefs in (params.theta_c, params.beta_c, params.gamma_c)
    )
    a, a_star, m1s, m2s = (float(v) for v in (q.a, q.a_star, q.m1_star, q.m2_star))
    d, s = a - a_star, a + a_star
    gamma0c = g[0] + gc
    mu1s = gamma0c + g[1] * a_star
    base2s = b[0] + b[1] * a_star + bc
    slope2s = b[2] + b[3] * a_star
    ref2 = sig2 + mu1s * mu1s
    on_m2s, on_m1m2s = t[3] + t[5] * a_star, t[6] + t[7] * a_star

    def corner_world(e):
        mu1, base2, slope2 = g[0] + g[1] * e + gc, b[0] + b[1] * e + bc, b[2] + b[3] * e
        on_m2, on_m1, on_m1m2 = t[3] + t[5] * e, t[2] + t[4] * e, t[6] + t[7] * e
        return (
            t[0] + t[1] * e + tc + on_m2 * base2 + on_m1 * mu1 + on_m1m2 * base2 * mu1
            + on_m2 * slope2 * mu1 + on_m1m2 * slope2 * (sig2 + mu1 * mu1)
        )

    rows = {
        "CDE": (t[1] + t[4] * m1s + t[5] * m2s + t[7] * m1s * m2s) * d,
        "INT_ref-AM1": (mu1s - m1s) * (t[4] + t[7] * m2s) * d,
        "INT_ref-AM2+AM1M2": (
            t[1] + t[5] * base2s + t[7] * base2s * mu1s + t[5] * slope2s * mu1s
            + t[7] * slope2s * ref2 - (t[1] + t[5] * m2s) - t[7] * m2s * mu1s
        ) * d,
        "NatINT_AM1": (
            t[4] * g[1] + t[7] * g[1] * base2s + t[5] * g[1] * slope2s
            + 2.0 * t[7] * g[1] * slope2s * gamma0c + t[7] * g[1] * g[1] * slope2s * s
        ) * d * d,
        "NatINT_AM2": (
            t[5] * b[1] + t[7] * b[1] * mu1s + t[5] * b[3] * mu1s + t[7] * b[3] * ref2
        ) * d * d,
        "NatINT_AM1M2": (
            t[7] * b[1] * g[1] + t[5] * b[3] * g[1]
            + 2.0 * t[7] * b[3] * g[1] * gamma0c + t[7] * b[3] * g[1] * g[1] * s
        ) * d * d * d,
        "NatINT_M1M2": (
            b[1] * g[1] * on_m1m2s + b[3] * g[1] * on_m2s
            + 2.0 * b[3] * g[1] * on_m1m2s * gamma0c + b[3] * g[1] * g[1] * on_m1m2s * s
        ) * d * d,
        "PIE_M1": (
            g[1] * (t[2] + t[4] * a_star) + g[1] * on_m1m2s * base2s
            + g[1] * on_m2s * slope2s + 2.0 * g[1] * on_m1m2s * slope2s * gamma0c
            + g[1] * g[1] * on_m1m2s * slope2s * s
        ) * d,
        "PIE_M2": (
            b[1] * on_m2s + b[1] * on_m1m2s * mu1s + b[3] * on_m2s * mu1s
            + b[3] * on_m1m2s * ref2
        ) * d,
        "TE": corner_world(a) - corner_world(a_star),
    }
    rows["PDE"] = rows["CDE"] + rows["INT_ref-AM1"] + rows["INT_ref-AM2+AM1M2"]
    return rows


# ---------------------------------------------------------------------------
# frozen golden tables

# DM-1: binary chain model, hand-checked world values.
DM1_PM1 = {0: {0: 0.8, 1: 0.2}, 1: {0: 0.4, 1: 0.6}}
DM1_PM2 = {
    a: {m1: {1: 0.1 + 0.2 * a + 0.3 * m1, 0: 0.9 - 0.2 * a - 0.3 * m1} for m1 in (0, 1)}
    for a in (0, 1)
}
DM1_YMEAN = {
    a: {m1: {m2: 1.0 + a + 2 * m1 + 3 * m2 + a * m1 * m2 for m2 in (0, 1)} for m1 in (0, 1)}
    for a in (0, 1)
}
DM1_WORLDS = [5.0, 4.28, 3.6, 3.64, 2.48, 3.04, 2.96, 1.88]
DM1_COMPONENTS = {
    "TE": 3.12,
    "PIE_M1": 1.16,
    "PIE_M2": 0.60,
    "NatINT_AM1": 0.16,
    "NatINT_AM2": 0.04,
    "NatINT_AM1M2": 0.08,
    "NatINT_M1M2": 0.0,
    "PDE": 1.08,
    "CDE": 1.0,
    "IR1": 0.0,
    "IR2": 0.08,
    "TDE": 1.36,
    "SIE_M1": 1.16,
}

# DS-1: binary single-mediator model, hand-checked core decomposition.
DS1_PM1 = {0: {0: 0.7, 1: 0.3}, 1: {0: 0.3, 1: 0.7}}
DS1_YMEAN = {a: {m: 1.0 + a + m + 2 * a * m for m in (0, 1)} for a in (0, 1)}
DS1_CORNERS = {
    (1, 1): 4.1,
    (0, 0): 1.3,
    (1, 0): 2.9,
    (0, 1): 1.7,
}
DS1_COMPONENTS = {
    "CDE": 1.0,
    "INT_ref": 0.6,
    "INT_med": 0.8,
    "PIE": 0.4,
    "TE": 2.8,
}


# ---------------------------------------------------------------------------
# linear Gaussian chain world, closed form


def linear_world_exact(params, e_y, e_m2, e_m1, c_value=0.0):
    """Closed-form W(e_Y, e_M2, e_M1) for the linear chain model."""
    g, b, t = params["gamma"], params["beta"], params["theta"]
    c = c_value
    sd1 = params.get("sd_m1", 1.0)
    mu1 = g["g0"] + g["g1"] * e_m1 + g.get("g2", 0.0) * c
    ty = t["t0"] + t["t1"] * e_y + t.get("t8", 0.0) * c
    cm2 = b["b0"] + b["b1"] * e_m2 + b.get("b4", 0.0) * c
    sm2 = b["b2"] + b["b3"] * e_m2
    c2 = t["t3"] + t["t5"] * e_y
    c1 = t["t2"] + t["t4"] * e_y
    c12 = t["t6"] + t["t7"] * e_y
    return (
        ty
        + c2 * cm2
        + c1 * mu1
        + c12 * cm2 * mu1
        + c2 * sm2 * mu1
        + c12 * sm2 * (sd1 ** 2 + mu1 ** 2)
    )

import math

import mpmath
import numpy as np
import pytest

import doublehopf as dh
from doublehopf.normalform import ViaLine, ViaLines

# the worked instance used throughout: epsilon = 0.1, mu = 0.5
EPS = 0.1
MU = 0.5

# pinned reference values for that instance (gain/delay/frequencies at the
# double-Hopf point and the derived unfolding data)
REF_K0 = 4.834585253
REF_TAU0 = 8.815987316
REF_OM1 = 0.7307969965
REF_OM2 = 0.9007354676
REF_B0 = 0.087454
REF_C0 = -45.7383
REF_C1_MAP = (0.2429777596, -0.2981855434)
REF_C2_MAP = (-0.2004123093, 0.4602126544)
REF_SLOPES = {
    "L1": 0.435478,
    "L2": 0.814854,
    "L3": 0.828102,
    "L4": 0.828985,
    "L5": 0.828985,
    "L6": 0.874050,
}


@pytest.fixture(scope="session")
def hh():
    return dh.find_hopf_hopf(EPS, MU, 1, 1, 4.5, 5.2)


@pytest.fixture(scope="session")
def coeffs(hh):
    return dh.nf_coefficients(hh, EPS, MU)


@pytest.fixture(scope="session")
def unfolding(coeffs):
    return dh.unfolding_params(coeffs)


@pytest.fixture(scope="session")
def lines(unfolding):
    return dh.via_lines(unfolding)


def draw_admissible(rng, n):
    """n random (epsilon, mu, k) triples satisfying both gain conditions."""
    out = []
    while len(out) < n:
        eps = rng.uniform(0.05, 0.6)
        mu = rng.uniform(0.1, 0.9)
        k = rng.uniform(-2.0, 1.0 / eps)
        lad = dh.hopf_ladders(eps, mu, k)
        if lad.h1.item() and lad.h2.item():
            out.append((eps, mu, k))
    return out


def memory_recursion(src, hist, nd, mu=MU):
    """The feedback memory of src node by node, independent of nfde_sim:
    m[n] = (1-mu)*src[n] + mu*m[n-nd], with m = hist before node 0.

    theta is the memory of x (history x0), theta' that of y (history 0)."""
    m = []
    for n, v in enumerate(np.asarray(src, np.float64).tolist()):
        m.append((1.0 - mu) * v + mu * (hist if n < nd else m[n - nd]))
    return np.array(m)


def draw_amplitude_params(rng):
    """Signed magnitudes in [0.3, 5] with a nondegenerate determinant."""
    while True:
        vals = rng.uniform(0.3, 5.0, size=5) * rng.choice([-1.0, 1.0], size=5)
        c1, c2, b0, c0, d0 = vals
        if abs(d0 - b0 * c0) > 0.1:
            return float(c1), float(c2), float(b0), float(c0), float(d0)


def grid_scan_oracle(c1, c2, b0, c0, d0, box, n=400):
    """Brute-force equilibrium finder for the amplitude system: local minima
    of |rhs|^2 on an n x n grid over [0, box]^2, refined by damped Newton
    with a finite-difference Jacobian.  Independent of the closed forms."""
    r = np.linspace(0.0, box, n)
    r1g, r2g = np.meshgrid(r, r, indexing="ij")
    f1 = r1g * (c1 + r1g**2 + b0 * r2g**2)
    f2 = r2g * (c2 + c0 * r1g**2 + d0 * r2g**2)
    mag = f1 * f1 + f2 * f2
    pad = np.pad(mag, 1, constant_values=np.inf)
    local_min = np.ones_like(mag, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            local_min &= mag <= pad[1 + di : 1 + di + n, 1 + dj : 1 + dj + n]
    seeds = np.column_stack([r1g[local_min], r2g[local_min]])

    def rhs(p):
        return np.array(
            [
                p[0] * (c1 + p[0] ** 2 + b0 * p[1] ** 2),
                p[1] * (c2 + c0 * p[0] ** 2 + d0 * p[1] ** 2),
            ]
        )

    found = []
    eps_fd = 1e-7
    for seed in seeds:
        p = seed.copy()
        ok = False
        for _ in range(80):
            f = rhs(p)
            if np.max(np.abs(f)) < 1e-12:
                ok = True
                break
            jac = np.empty((2, 2))
            for c in range(2):
                dp = np.zeros(2)
                dp[c] = eps_fd
                jac[:, c] = (rhs(p + dp) - rhs(p - dp)) / (2 * eps_fd)
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                break
            if np.max(np.abs(step)) > 0.5 * box:
                break
            p = p - step
        if not ok or p[0] < -1e-9 or p[1] < -1e-9 or max(p) > box + 1e-9:
            continue
        p = np.maximum(p, 0.0)
        if all(np.linalg.norm(p - q) > 1e-4 for q in found):
            found.append(p)
    return sorted(found, key=lambda q: (q[0], q[1]))


def format_cases():
    """About 70 k finite and special doubles for checks that a formatter
    gives the digits of format(v, ".17g"): random bit patterns, normals
    scaled over the whole exponent range, and the zeros, subnormals,
    extremes, ties and non-finite values."""
    rng = np.random.default_rng(17)
    raw = rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-320, 300, 20_000)
    vals = [v for v in np.concatenate([raw, scaled]).tolist() if math.isfinite(v)]
    vals += [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
             2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
             1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0**53 + 2.0,
             math.inf, -math.inf, math.nan]
    return vals


def mp_ladders(eps, mu, k, ctx=mpmath.mp):
    """The closed-form ladders at gain k, in mpmath: {sign: (omega, tau0)}.

    ctx is ``mpmath.mp`` for values at its working precision, or
    ``mpmath.iv`` for enclosures; eps, mu and k are taken as the exact
    values of their doubles.  c is the unfactored eps^2 k^2 (1 - mu) -
    2 eps k + 1 + mu, and each root of the frequency quadratic is written
    as (-b -+ sqrt(disc))/(2a), the forms ``chareq`` avoids.  An enclosure
    of the angle that straddles 0 raises ValueError."""
    e, m, kk = ctx.mpf(eps), ctx.mpf(mu), ctx.mpf(k)
    a = 1 + m
    b = 2 * e * kk - 2 * (1 + m) + e * e * (1 + m)
    c = e * e * kk * kk * (1 - m) - 2 * e * kk + 1 + m
    sq = ctx.sqrt(b * b - 4 * a * c)
    out = {}
    for sign, rho in (("minus", (-b - sq) / (2 * a)), ("plus", (-b + sq) / (2 * a))):
        w = ctx.sqrt(rho)
        p, q, r, s = m * w * w - m, e * m * w, w * w - 1 + e * kk * (1 - m), e * w
        den = p * p + q * q
        theta = ctx.atan2((q * r - p * s) / den, (p * r + q * s) / den)
        negative = theta < 0
        if negative is None:
            raise ValueError(f"the angle at k={k} straddles 0")
        out[sign] = (w, (theta + 2 * ctx.pi if negative else theta) / w)
    return out


def mp_gap(eps, mu, k, j_plus, j_minus, ctx=mpmath.mp):
    """tau_{j_plus}^+ - tau_{j_minus}^- at gain k, by ``mp_ladders``."""
    lad = mp_ladders(eps, mu, k, ctx)
    (w_p, t_p), (w_m, t_m) = lad["plus"], lad["minus"]
    return t_p + j_plus * 2 * ctx.pi / w_p - t_m - j_minus * 2 * ctx.pi / w_m


def loop_bilinear_form(psi_row, phi_col, pieces, psi_row_deriv, n_nodes=64):
    """The neutral dual pairing as a loop over the Gauss-Legendre nodes on
    [-1, 0], calling each function with one scalar per node and adding the
    weighted integrands in node order: the oracle of the single-pass
    ``normalform.bilinear_form``, which must match it bit for bit."""
    m, b2 = pieces.M, pieces.B2
    val = psi_row(0.0) @ phi_col(0.0) - psi_row(0.0) @ (m @ phi_col(-1.0))
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    for xi, wi in zip(0.5 * (x - 1.0), 0.5 * w):
        col = phi_col(xi)
        val += wi * (psi_row(xi + 1.0) @ (b2 @ col)
                     - psi_row_deriv(xi + 1.0) @ (m @ col))
    return val


def covector_via_lines(u):
    """The case-VIa rays pulled back one covector at a time: each ray is the
    half of m1*c1 + m2*c2 = 0 where a named scaled coordinate has a given
    sign, mapped to the kernel of the covector's pullback and oriented by
    that half-plane test.  The oracle of ``normalform.via_lines``, which
    maps the c-plane directions through the adjugate and must match it
    field for field."""
    hopf_slope = (u.c0 - 1.0) / (u.b0 + 1.0)
    table = (
        ("L1", 0.0, 1.0, ("c1", 1)),
        ("L2", 1.0, 0.0, ("c2", 1)),
        ("L3", u.c0, -1.0, ("c2", 1)),
        ("L4", hopf_slope, -1.0, ("c2", 1)),
        ("L5", hopf_slope, -1.0, ("c2", 1)),
        ("L6", 1.0 / u.b0, 1.0, ("c2", 1)),
        ("L7", 0.0, 1.0, ("c1", -1)),
        ("L8", 1.0, 0.0, ("c2", -1)),
    )
    lines = []
    for name, m1, m2, (cname, csign) in table:
        a_coef = m1 * u.c1_map[0] + m2 * u.c2_map[0]
        b_coef = m1 * u.c1_map[1] + m2 * u.c2_map[1]
        d = np.array([-b_coef, a_coef])
        d /= math.hypot(d[0], d[1])
        cmap = u.c1_map if cname == "c1" else u.c2_map
        if csign * float(cmap @ d) < 0.0:
            d = -d
        angle = math.atan2(d[1], d[0])
        if abs(d[0]) < 1e-14:
            slope, half = None, "alpha2>0" if d[1] > 0 else "alpha2<0"
        else:
            slope, half = float(d[1] / d[0]), "alpha1>0" if d[0] > 0 else "alpha1<0"
        lines.append(ViaLine(name, slope, half, angle, name == "L4"))
    return ViaLines(tuple(lines))

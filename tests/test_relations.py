"""Exact relations between nu-GH characteristic functions over a seeded
draw of the advertised domain: both families, |lam| <= 25,
|beta| / alpha <= 0.95 and scale c in 10^[-6, 6].  They need no oracle:

- evaluation set: cf(t) alone equals cf(T)[i] for t = T[i];
- reflection: -X is nu-GH(lam, alpha, -beta, delta, -mu), so its CF at t
  is conj g(t);
- scale: cX is nu-GH(lam, alpha/c, beta/c, c delta, c mu), so its CF at t
  is g(c t);
- conjugate symmetry, g(-t) = conj g(t), and |g| <= 1.

Each law meets every relation, raises a typed :class:`NughError`, or is
wrong; a warning counts as wrong."""

import warnings

import numpy as np

from nugh.errors import NughError
from nugh.families import CHEBYSHEV, GEOMETRIC
from nugh.gh import GHParams
from nugh.transform import NuGHChar

SEED, LAWS = 1, 60
T = np.array([0.3, 1.0, 3.0, 10.0, 50.0, 179.2866736319822, 65535.7])


def domain_laws(seed=SEED, count=LAWS):
    """(family, unit-scale GH base, scale c) for ``count`` laws."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        family = (GEOMETRIC, CHEBYSHEV)[rng.integers(2)]
        alpha = 10 ** rng.uniform(-0.5, 0.7)
        beta, delta = alpha * rng.uniform(-0.95, 0.95), 10 ** rng.uniform(-0.7, 0.7)
        base = GHParams(rng.uniform(-25.0, 25.0), alpha, beta, delta, rng.uniform(-1.0, 1.0))
        yield family, base, 10 ** rng.uniform(-6.0, 6.0)


def _equal(a, b):
    return bool(np.all(np.abs(a - b) <= 1e-9 * np.abs(b) + 1e-14))


def broken_relations(family, base, c):
    """Names of the relations that the law breaks."""
    lam, alpha, beta, delta, mu = base.lam, base.alpha, base.beta, base.delta, base.mu
    t = np.concatenate([-T[::-1], [0.0], T])
    g = NuGHChar(family, base)
    table = g(t)
    scaled = NuGHChar(family, GHParams(lam, alpha / c, beta / c, c * delta, c * mu))
    checks = {
        "evaluation set": _equal(np.array([g(x) for x in t]), table),
        "reflection": _equal(NuGHChar(family, GHParams(lam, alpha, -beta, delta, -mu))(t), np.conj(table)),
        "scale": _equal(scaled(t / c), g(c * (t / c))),
        "conjugate symmetry": _equal(table[::-1], np.conj(table)),
        "|g| <= 1": bool(np.all(np.abs(table) <= 1 + 1e-12)),
    }
    return [name for name, ok in checks.items() if not ok]


def classify(family, base, c):
    """'meets', 'typed error', or 'wrong: ' and what went wrong."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            broken = broken_relations(family, base, c)
        except NughError:
            return "typed error"
    if caught:
        return f"wrong: warning {caught[0].message}"
    return "wrong: " + ", ".join(broken) if broken else "meets"


def test_domain_sweep_has_no_wrong_law():
    wrong = [(law, verdict) for law in domain_laws() if (verdict := classify(*law)).startswith("wrong")]
    assert wrong == []

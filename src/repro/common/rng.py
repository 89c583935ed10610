"""Random-number-generator plumbing.

The repository-wide convention (see "Seeds and random streams" in
``docs/architecture.md``) is that stochastic code
never calls ``np.random`` module-level functions.  Instead each public entry
point takes ``seed: int | np.random.Generator | None`` and normalises it with
:func:`ensure_rng`; nested components receive independent child generators via
:func:`spawn_rngs` so that adding a component never perturbs the random
stream of its siblings.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged).

    Examples
    --------
    >>> g = ensure_rng(42)
    >>> h = ensure_rng(g)
    >>> g is h
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent child generators.

    Uses :meth:`numpy.random.Generator.spawn` (NumPy >= 1.25) so the children
    are derived from non-overlapping seed sequences.

    Parameters
    ----------
    seed:
        Anything accepted by :func:`ensure_rng`.
    n:
        Number of child generators, must be >= 0.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    rng = ensure_rng(seed)
    if n == 0:
        return []
    return list(rng.spawn(n))

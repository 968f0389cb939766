"""Deterministic perturbation of coefficient fields.

Two mechanisms are provided.  ``gaussian`` adds an independent draw
delta * N(0, 1) to every stored entry — the raw scheme used by the bundled
experiment presets.  ``projected`` draws the same Gaussian vector and then
rescales it so its l_p norm equals delta exactly, matching the formal
noise model ||xi||_{l_p} <= delta with equality.  At large finite p the
sum of |xi|^p can overflow or underflow float64; the norm is then taken as
max|xi| * ||xi / max|xi|||_p, so the rescaled draw still has l_p norm delta.

Draws come from a 64-bit counter-based generator (Philox) pushed through an
explicit Box-Muller transform, consumed in the lexicographic (row-major)
order of the field's stored entries, so results are reproducible bit-for-bit
given the seed and independent of thread count.

A batch of seeds (a chunk the method's pipeline perturbs together, see
:func:`legdiff.method._derive`) draws with one bit generator, re-keyed for
each seed: Philox is counter-based, so its stream is fixed by its key, and a
generator set to counter 0 and key ``[seed, 0]`` draws the bytes a new
``Philox(key=seed)`` draws.  Re-keying skips the constructor's OS-entropy
seed sequence, which ``key=`` discards.  The batch's uniforms fill one array
per Box-Muller input, transformed in one pass; each row is bit for bit the
one-seed draw.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .coeffs import CoeffField
from .index import _check_integer, _check_p

__all__ = ["NoiseSpec", "noise_vector", "perturb"]


@dataclass(frozen=True)
class NoiseSpec:
    """How a coefficient field is perturbed.

    ``kind`` is "none", "gaussian" (raw delta-scaled normals), or "projected"
    (Gaussian vector rescaled to l_p norm exactly delta).  The noise level
    must satisfy 0 < delta < 1 whenever kind is not "none"; p may be
    ``math.inf``.
    """

    KINDS: ClassVar[tuple[str, ...]] = ("none", "gaussian", "projected")

    kind: str  # one of KINDS
    delta: float = 0.0
    p: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected {self.KINDS}")
        if self.kind != "none" and not (0.0 < self.delta < 1.0):
            raise ValueError(f"noise level delta={self.delta} must lie in (0, 1)")
        _check_p(self.p)
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """Philox keys are unsigned 64-bit integers."""
    _check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed={seed} must satisfy 0 <= seed < 2**64")


def _normal_rows(seeds: Sequence[int], count: int) -> np.ndarray:
    """Row i: ``count`` standard normals from Philox(``seeds[i]``) via
    Box-Muller, each row the bytes of a fresh generator's draw, all rows from
    one bit generator.

    Every seed is checked before anything is drawn.  The generator is made
    with the first seed's key; each later seed sets it back to that fresh
    state with the key's low word replaced by the seed.  Each seed draws its
    ``half`` uniforms u1, then its ``half`` u2, as it does alone, into row i
    of one array per input; Box-Muller runs once over both arrays, and
    radius * cos and radius * sin interleave into the rows.
    """
    for seed in seeds:
        _check_seed(seed)
    if count < 0:
        raise ValueError("count must be nonnegative")
    half = (count + 1) // 2
    u1 = np.empty((len(seeds), half))
    u2 = np.empty((len(seeds), half))
    bits = None
    for seed, row1, row2 in zip(seeds, u1, u2):
        if bits is None:
            bits = np.random.Philox(key=seed)
            gen = np.random.Generator(bits)
            fresh = bits.state if len(seeds) > 1 else None  # counter 0, key [seed, 0], no buffered words
        else:
            fresh["state"]["key"][0] = seed
            bits.state = fresh
        gen.random(out=row1)
        gen.random(out=row2)
    radius = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1 - u1 in (0, 1] keeps the log finite
    angle = 2.0 * np.pi * u2
    out = np.empty((len(seeds), 2 * half))
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out[:, :count]


def _lp_norm(x: np.ndarray, p: float) -> float:
    """``||x||_p``, scaled by ``max|x|`` where the direct sum is not a normal float64."""
    size = np.abs(x)
    if math.isinf(p):
        return float(np.max(size))
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(size**p)
        if np.finfo(np.float64).tiny <= total < math.inf:
            return float(total ** (1.0 / p))
        peak = np.max(size)
        if peak == 0.0:
            return 0.0
        return float(peak * np.sum((size / peak) ** p) ** (1.0 / p))


def noise_vector(field: CoeffField, spec: NoiseSpec) -> np.ndarray:
    """The additive noise ``perturb`` would inject, in lexicographic entry order.

    Empty for kind "none" or an empty field.  Exposed separately so the noise
    model itself can be verified without reconstructing it by subtraction
    (which would be polluted by rounding when entries dwarf delta).
    """
    if spec.kind == "none":
        return np.zeros(0, dtype=np.float64)
    return _noise_rows(spec, [spec.seed], len(field))[0]


def _noise_rows(spec: NoiseSpec, seeds: Sequence[int], count: int) -> np.ndarray:
    """Row i: :func:`noise_vector`'s draw on ``count`` entries under ``spec``
    (kind "gaussian" or "projected") with seed ``seeds[i]``, one bit generator
    for all rows.  Each "projected" row is scaled by its own l_p norm."""
    draws = _normal_rows(seeds, count)
    if spec.kind == "gaussian" or count == 0:
        draws *= spec.delta
        return draws
    for row in draws:
        norm = _lp_norm(row, spec.p)
        if norm == 0.0:
            raise RuntimeError("degenerate all-zero noise draw")
        row *= spec.delta / norm
    return draws


def perturb(field: CoeffField, spec: NoiseSpec) -> CoeffField:
    """Perturbed copy of ``field`` according to ``spec``.

    The stored entries are perturbed in lexicographic (k, j) order; entries
    absent from the field receive no noise.  With kind "none" the field is
    returned unchanged.
    """
    if spec.kind == "none":
        return field
    values = field.values.copy()
    values[field.stored] += noise_vector(field, spec)
    return CoeffField(values, field.stored)

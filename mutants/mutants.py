"""Single-edit mutants of ``src/relkin`` that the tier-1 suite must kill.

Each entry replaces one exact piece of text in one file.  ``run.py``
applies each to its own copy of the tree and runs the tier-1 suite on it;
a mutant that no test fails has survived.  A guard, a tolerance or a
fallback that a change adds comes with its mutant here.  A mutant that
cannot change any output is kept with the reason in ``equivalent`` and
skipped, never deleted.

M1-M14 are the mutants planted by hand when the suite was last reviewed;
U1-U10 plant faults in the scaling to unit scale at the fit (of the
estimators and of ``fit_gram_coeffs``) and in the ``position_mds``
warning; L1 drops the finiteness guard of ``vech``.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    breaks: str
    equivalent: str = ""


DE = "src/relkin/distance_estimator.py"
AE = "src/relkin/accel_estimator.py"
LA = "src/relkin/linalg.py"

MUTANTS = [
    Mutant(
        "M1", DE,
        "(bases.residual[0] > bases.residual[1])",
        "(bases.residual[0] > 10.0 * bases.residual[1])",
        "the reflection rule keeps the unreflected factor unless its residual is 10x worse",
    ),
    Mutant(
        "M2", DE, "_NEGLIGIBLE_ACCEL = 1e-10", "_NEGLIGIBLE_ACCEL = 1e-6",
        "acceleration factors 100 times too strong count as negligible",
    ),
    Mutant(
        "M3", LA, "np.copysign(1.0, lead))[..., None] * rows", "1.0)[..., None] * rows",
        "the MDS factor loses its sign convention",
    ),
    Mutant(
        "M4", LA, "_ACCEPT_RTOL = 1e-13", "_ACCEPT_RTOL = 1e-7",
        "the certified iteration accepts Ritz pairs far from converged",
    ),
    Mutant(
        "M5", LA, "_DEGENERATE_RTOL = 1e-12", "_DEGENERATE_RTOL = 1e-5",
        "well-posed Grammians are flagged as degenerate geometry",
    ),
    Mutant(
        "M6", DE, "np.where(fallback[..., None], bases.base, u)",
        "np.where(fallback[..., None], 0.0, u)",
        "the fallback's velocity leaves the velocity split's line",
    ),
    Mutant(
        "M7", DE, "lam[..., 1] <= 1e-8 * lam[..., 0]", "lam[..., 1] <= 1e-3 * lam[..., 0]",
        "well-posed factors are split as rank deficient",
    ),
    Mutant(
        "M8", DE, "lam[..., 0] / safe[..., 1] < 1.0 + 1e-6", "lam[..., 0] / safe[..., 1] < 0.0",
        "nearly repeated singular values are never flagged",
    ),
    Mutant(
        "M9", AE, "factor = coeffs.reshape(-1, d, n) @ centering_matrix(n)",
        "factor = coeffs.reshape(-1, d, n)",
        "the sensor acceleration block is not centered",
    ),
    Mutant(
        "M10", DE, "np.frexp(fitted.t_max)[0] ** 2 <= floor", "np.frexp(fitted.t_max)[0] <= floor",
        "the negligible test takes t_max where it needs t_max^2",
    ),
    Mutant(
        "M11", DE, "if diag.min() <= 1e-12 * max(diag.max(), 1.0):", "if False:",
        "a rank-deficient time grid is fitted instead of rejected",
    ),
    Mutant(
        "M12", LA, "certified[kept] = (last > discarded[kept]) & (", "certified[kept] = (",
        "the certificate no longer requires lambda_d above the discarded norm",
    ),
    Mutant(
        "M13", LA, "going = ~converged & (worst <= _CONTRACTION**_PASS_PRODUCTS * previous)",
        "going = ~converged",
        "a stalled iteration keeps running to the pass cap",
    ),
    Mutant(
        "M14", DE, "kept = sv > _EPS * max(w.shape[-2:]) * sv[..., :1]",
        "kept = sv > 1e-6 * sv[..., :1]",
        "the basis rank rule discards singular values a million times too large",
    ),
    Mutant(
        "U1", DE, "units = [(1, p) for p in range(3)]", "units = [(1, 0), (1, 0), (1, 2)]",
        "y1 is scaled back by 2^e instead of 2^(e - f)",
    ),
    Mutant(
        "U2", DE, "exponents = np.array([fitted.exponent, -np.frexp(fitted.t_max)[1]])",
        "exponents = np.array([fitted.exponent, -fitted.exponent])",
        "the scale back takes a per-record time exponent, not the one the grid was scaled by",
    ),
    Mutant(
        "U3", DE, "_PLANAR_MDS = 10.0", "_PLANAR_MDS = 0.1",
        "collinear scenes and random pairs no longer warn",
    ),
    Mutant(
        "U4", DE, "np.isinf(x).nonzero()[0]} if overflowed else ()",
        "np.isinf(x).nonzero()[0]} if False else ()",
        "an estimate that overflows in its own units is returned with inf in it",
    ),
    Mutant(
        "U5", AE, "lost = (big[0] > 0.0) & ((big[1] + shift > 128) | (shift > 1023))",
        "lost = big[0] < 0.0",
        "accelerations 1e160 times too large for the distances overflow the deflation",
    ),
    Mutant(
        "U8", AE, " & (big[1] + shift > -128)).astype(float)", ").astype(float)",
        "readings far below the distances are split on, and the basis norm overflows",
    ),
    Mutant(
        "U6", DE, "step = max(1, 4096 // vals.shape[-1])", "step = vals.shape[-2]",
        "the scaled pair fit forms a second record-sized array",
    ),
    Mutant(
        "U7", LA, "shift = np.frexp(np.maximum(big, _TINY))[1]", "shift = 0 * big.astype(int)",
        "classical_mds loses its power-of-two shift, so huge Grammians overflow",
    ),
    Mutant(
        "U9", DE, "exponent = np.maximum(np.frexp(unit.pairs.max(axis=(1, 2)))[1] // 2, -500)",
        "exponent = np.frexp(unit.pairs.max(axis=(1, 2)))[1] // 2",
        "subnormal pairs take 4^-e past the largest float, and their stack's finish raises",
    ),
    Mutant(
        "U10", DE, "f = np.frexp(np.abs(t).max(initial=0.0))[1]", "f = 0",
        "fit_gram_coeffs fits the caller's grid as it is: a 4000 s grid reads as rank deficient",
    ),
    Mutant(
        "L1", LA, "if not math.isfinite(big):", "if False:",
        "vech passes a NaN entry through and takes inf to a raw numpy warning",
    ),
]

"""Statistical tests that probe a box and rule on its quantum consistency.

Every detector reduces its evidence to a TestVerdict: a scalar statistic, a
threshold, a standard error and the three-way decision

* ``post-quantum`` when the statistic exceeds the threshold by at least 3
  standard errors,
* ``quantum-consistent`` when it falls below by at least 3 standard errors,
* ``inconclusive`` otherwise (including whenever the error is undefined).

Exact thresholds (the discrimination bound, the transmission-fidelity
ceiling) are computed in closed form; tomography-based detectors calibrate
their thresholds empirically as the 99th percentile of the identity box's
null statistic at the identical shot budget (50 replications, fixed
calibration seed, cached per budget).  The percentile is numpy's default
('linear') quantile, interpolated directly between the two sorted
statistics around position 49 x 0.99; it equals ``np.quantile`` bit for
bit without that routine's first-call import of ``numpy.ma``.
"""

from __future__ import annotations

import functools
import math
import threading
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from .boxes import BoxModel, BoxPair, LinearBox, _local_dims, compose_boxes
from .channels import QuantumChannel, random_channel
from .linalg import (
    MAX_DIM,
    InvalidInputError,
    as_integer,
    eig_hermitian,
    hermitian_basis,
    nearest_density_matrix,
    trace_distance,
    trace_norm,
    trace_norms,
    uhlmann_fidelity,
    worst_fidelity,
)
from .rng import RngStream
from .states import (
    DensityMatrix,
    Ensemble,
    PureState,
    as_state,
    check_densities,
    ket,
    minus_state,
    plus_state,
)
from .tomography import (
    TomographyRun,
    canonical_probe_basis,
    process_tomography_ancilla,
    process_tomography_direct,
    state_tomography,
)

__all__ = [
    "VERDICT_QUANTUM",
    "VERDICT_POST_QUANTUM",
    "VERDICT_INCONCLUSIVE",
    "CALIBRATION_SEED",
    "NULL_REPLICATIONS",
    "TestVerdict",
    "HelstromSetup",
    "helstrom_test",
    "canonical_ensemble_pair",
    "ensemble_signalling_test",
    "basis_invariance_test",
    "ancilla_consistency_test",
    "concatenate_tests",
    "composition_gap_test",
    "QRAC_BLOCK",
    "qrac_fidelity_estimate",
    "QRAC_FIDELITY_CEILING",
    "nsq_signalling_measure",
    "nsq_random_survey",
]

VERDICT_QUANTUM = "quantum-consistent"
VERDICT_POST_QUANTUM = "post-quantum"
VERDICT_INCONCLUSIVE = "inconclusive"

# Null-threshold calibration: identity box, fixed seed, 99th percentile.
CALIBRATION_SEED = 0xD1CE5EED
NULL_REPLICATIONS = 50
NULL_QUANTILE = 0.99

QRAC_FIDELITY_CEILING = 5.0 / 6.0
# Rounds per QRAC block; each block draws from its own child stream.  It
# bounds the per-block arrays; the kept rounds' fidelities (8 bytes each)
# are held until the end, and the parser puts no upper limit on ``rounds``.
QRAC_BLOCK = 4096


def _verdict_for(statistic: float, threshold: float, std_error: float) -> str:
    if not np.isfinite(std_error):
        return VERDICT_INCONCLUSIVE
    diff = statistic - threshold
    if diff > 0 and diff >= 3.0 * std_error:
        return VERDICT_POST_QUANTUM
    if diff < 0 and -diff >= 3.0 * std_error:
        return VERDICT_QUANTUM
    return VERDICT_INCONCLUSIVE


@dataclass(frozen=True)
class TestVerdict:
    """Quantified outcome of one detector run.

    The verdict is derived from the other fields by the 3-standard-error
    rule at construction and is never passed in, so a TestVerdict cannot
    carry an inconsistent ruling.  ``reconstructions`` holds the matrices
    a detector hands its report as evidence, outside the ruling.
    """

    statistic: float
    threshold: float
    std_error: float
    n_trials: int
    verdict: str = field(init=False)
    extras: dict | None = field(default=None, kw_only=True)
    reconstructions: dict | None = field(default=None, kw_only=True, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("statistic", "threshold", "std_error"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "n_trials", int(self.n_trials))
        object.__setattr__(
            self, "verdict", _verdict_for(self.statistic, self.threshold, self.std_error)
        )


# ---------------------------------------------------------------------------
# two-state discrimination


@dataclass(frozen=True)
class HelstromSetup:
    """Discrimination instance: two pure hypotheses with prior weights."""

    priors: tuple
    states: tuple

    def __post_init__(self) -> None:
        p = tuple(float(x) for x in self.priors)
        s = tuple(as_state(x) for x in self.states)
        if len(p) != 2 or len(s) != 2:
            raise InvalidInputError("discrimination setup needs exactly two hypotheses")
        if min(p) < 0 or not abs(sum(p) - 1.0) <= 1e-12:
            raise InvalidInputError("priors must form a probability pair")
        if s[0].dim != s[1].dim:
            raise InvalidInputError("hypothesis states have different dimensions")
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "states", s)

    @functools.cached_property
    def bound(self) -> float:
        """Optimal success probability for the input states, computed once per setup."""
        p1, p2 = self.priors
        s1, s2 = self.states
        delta = p1 * s1.projector() - p2 * s2.projector()
        return 0.5 * (1.0 + trace_norm(delta))


def _optimal_projectors(rho1: DensityMatrix, rho2: DensityMatrix, priors) -> tuple:
    """Projectors of the optimal two-outcome measurement for the given pair.

    Null directions of the difference operator do not affect the success
    probability; they are assigned to the hypothesis with the larger prior.
    """
    delta = priors[0] * rho1.matrix - priors[1] * rho2.matrix
    eigvals, eigvecs = eig_hermitian(delta)
    to_first = eigvals > 1e-12
    if priors[0] >= priors[1]:
        to_first |= np.abs(eigvals) <= 1e-12
    pi1 = (eigvecs[:, to_first] @ eigvecs[:, to_first].conj().T) if to_first.any() else np.zeros_like(delta)
    pi2 = np.eye(delta.shape[0]) - pi1
    return pi1, pi2


def helstrom_test(
    box: BoxModel,
    setup: HelstromSetup,
    trials: int = 10_000,
    *,
    rng: RngStream,
) -> TestVerdict:
    """Check whether the box lets a receiver beat the input-state bound.

    Each trial draws a hypothesis by its prior, pushes the state through the
    box, and applies the measurement that is optimal for the exact pair of
    output densities.  Trials are drawn as binomial blocks, which has
    exactly the per-trial distribution.  Beating the bound by 3 standard
    errors is a post-quantum flag; trace-distance monotonicity makes that
    impossible for any CPTP box.
    """
    trials = as_integer(trials, "trials", least=1)
    p1, p2 = setup.priors
    out1 = box.ensemble_output_density(setup.states[0])
    out2 = box.ensemble_output_density(setup.states[1])
    pi1, pi2 = _optimal_projectors(out1, out2, setup.priors)
    q1 = float(np.clip(np.real(np.trace(pi1 @ out1.matrix)), 0.0, 1.0))
    q2 = float(np.clip(np.real(np.trace(pi2 @ out2.matrix)), 0.0, 1.0))
    gen = rng.generator
    n1 = int(gen.binomial(trials, p1))
    successes = int(gen.binomial(n1, q1)) + int(gen.binomial(trials - n1, q2))
    rng.tally(trials)
    p_hat = successes / trials
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return TestVerdict(
        p_hat,
        setup.bound,
        std_error,
        trials,
        extras={"exact_success": p1 * q1 + p2 * q2},
    )


# ---------------------------------------------------------------------------
# equal-density ensemble pairs


@functools.cache
def canonical_ensemble_pair() -> tuple:
    """The z-basis and x-basis halves of the maximally mixed qubit, built once."""
    e1 = Ensemble((0.5, 0.5), (ket(0), ket(1)))
    e2 = Ensemble((0.5, 0.5), (plus_state(), minus_state()))
    for s in e1.states + e2.states:
        s.vector.flags.writeable = False  # shared by every caller
    return e1, e2


def ensemble_signalling_test(
    box: BoxModel, e1: Ensemble | None = None, e2: Ensemble | None = None, *, rng=None
) -> TestVerdict:
    """Feed two decompositions of the same density and compare the outputs.

    The inputs must have equal density matrices, within 1e-10 in trace
    distance; anything else is rejected loudly, because with unequal inputs
    a nonzero statistic proves nothing.  With both omitted the pair is
    ``canonical_ensemble_pair()``.
    The computation is exact, so the threshold is a pure numerical-noise
    floor; ``rng`` is accepted as every detector accepts it and never drawn.
    """
    if (e1 is None) != (e2 is None):
        raise InvalidInputError("give both ensembles or neither")
    if e1 is None:
        e1, e2 = canonical_ensemble_pair()
    elif trace_distance(e1.density(), e2.density()) > 1e-10:
        raise InvalidInputError("the two ensembles must have equal density matrices")
    out1 = box.ensemble_output_density(e1)
    out2 = box.ensemble_output_density(e2)
    statistic = trace_distance(out1, out2)
    return TestVerdict(statistic, 1e-6, 0.0, 0)


# ---------------------------------------------------------------------------
# tomography-based tests and their null-threshold calibration

_calibration_lock = threading.Lock()
# (budget key, exact) -> Future of (threshold, spread); the first caller computes it
_calibration_cache: dict = {}


def _calibrated_null(key: str, statistic_fn, *, exact: tuple = ()) -> tuple:
    """99th-percentile threshold and spread of the identity box's statistic.

    statistic_fn(identity_box, stream) -> float is evaluated over
    NULL_REPLICATIONS independent streams derived from the fixed calibration
    seed and the budget key.  ``exact`` holds, bit for bit, any settings
    that the key prints rounded; the cache keeps one entry per ``(key,
    exact)``, so settings that round alike never share a threshold.  Each
    entry is computed once: its concurrent callers wait for the first one,
    while different entries calibrate in parallel.  A failed calibration is
    not cached; its waiters see the error and a later call computes afresh.
    """
    entry = (key, exact)
    with _calibration_lock:
        pending = _calibration_cache.get(entry)
        owner = pending is None
        if owner:
            pending = _calibration_cache[entry] = Future()
    if not owner:
        return pending.result()
    try:
        identity_box = LinearBox(QuantumChannel.identity(2))
        root = RngStream(CALIBRATION_SEED, zlib.crc32(key.encode()))
        stats = np.array(
            [statistic_fn(identity_box, root.child(rep)) for rep in range(NULL_REPLICATIONS)]
        )
        result = (_linear_quantile(stats, NULL_QUANTILE), float(np.std(stats, ddof=1)))
    except BaseException as exc:
        with _calibration_lock:
            del _calibration_cache[entry]
        pending.set_exception(exc)
        raise
    pending.set_result(result)
    return result


def _linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` (method 'linear'), read off the sorted values.

    The same interpolation, operation for operation: from the lower
    neighbour below the midpoint, back from the upper one at or above it.
    """
    ordered = np.sort(values)
    position = (ordered.size - 1) * q
    below = math.floor(position)
    low, high = ordered[below], ordered[min(below + 1, ordered.size - 1)]
    t = position - below
    if t >= 0.5:
        return float(high - (high - low) * (1 - t))
    return float(low + (high - low) * t)


def _projected_normal_choi(process) -> np.ndarray:
    return nearest_density_matrix(process.normalized_choi())


def _calibrated_test(
    box, key: str, run: TomographyRun, n_trials: int, statistic, rng: RngStream, exact: tuple = ()
) -> TestVerdict:
    """Rule on statistic(box, rng) -> (value, extras) against its null under ``(key, exact)``.

    ``extras`` is a function that builds the report extras; only the job's
    own evaluation calls it, so a calibration replication computes only the
    statistic.  The evidence is the delta-0 direct reconstruction at ``run``
    on child 1 << 20, clear of the statistics' children.
    """
    threshold, sigma = _calibrated_null(
        key, lambda null_box, stream: statistic(null_box, stream)[0], exact=exact
    )
    value, extras = statistic(box, rng)
    report = process_tomography_direct(box, canonical_probe_basis(2), run, rng.child(1 << 20))
    recon = {"choi": report.normalized_choi()}
    return TestVerdict(value, threshold, sigma, n_trials, extras=extras(), reconstructions=recon)


def basis_invariance_test(
    box: BoxModel,
    deltas: tuple = (0.0, math.pi / 5, math.pi / 3),
    shots: int = 10_000,
    *,
    rng: RngStream,
) -> TestVerdict:
    """Reconstruct the box in several rotated probe bases and compare.

    A linear box has one Choi matrix no matter which basis probes it; any
    dependence on the rotation angle is a post-quantum fingerprint.  The
    statistic is one minus the worst pairwise fidelity of the reconstructed
    (normalized, projected) Choi matrices; its null threshold and standard
    error come from the identity-box calibration at the same budget.  Each
    reconstruction measures the Pauli set with ``shots`` per setting.
    """
    if box.dim_in != 2 or box.dim_out != 2:
        raise InvalidInputError("the basis-invariance test is implemented for qubit boxes")
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise InvalidInputError("at least one probe rotation is required")
    run = TomographyRun(shots)

    def statistic(probed, stream):
        recs = [
            process_tomography_direct(
                probed, canonical_probe_basis(probed.dim_in, delta), run, stream.child(k)
            )
            for k, delta in enumerate(deltas)
        ]
        worst = worst_fidelity([_projected_normal_choi(rec) for rec in recs])
        return 1.0 - worst, lambda: {"cptp_residuals": tuple(rec.cptp_residual for rec in recs)}

    # the key seeds the calibration and prints the deltas rounded; hex keeps them exact
    key = "basis|{}|{}|{}".format(
        ",".join(f"{d:.12g}" for d in deltas), run.shots_per_setting, box.dim_in
    )
    exact = tuple(d.hex() for d in deltas)
    n_trials = len(deltas) * run.shots_per_setting
    return _calibrated_test(box, key, run, n_trials, statistic, rng, exact)


def ancilla_consistency_test(
    box: BoxModel,
    shots: int = 10_000,
    *,
    rng: RngStream,
) -> TestVerdict:
    """Compare the probe-state scheme against the entangled-reference scheme.

    For any CPTP box the two reconstructions estimate the same Choi matrix.
    The direct scheme measures the single-qubit Pauli set and the joint
    stage the two-qubit Pauli set, both with ``shots`` per setting.
    Threshold and standard error are calibrated on the identity box.
    """
    if box.dim_in != 2 or box.dim_out != 2:
        raise InvalidInputError("the consistency test is implemented for qubit boxes")
    run = TomographyRun(shots)
    joint_run = TomographyRun(shots, 2)

    def statistic(probed, stream):
        basis = canonical_probe_basis(2, 0.0)
        direct = process_tomography_direct(probed, basis, run, stream.child(0))
        ancilla = process_tomography_ancilla(probed, joint_run, stream.child(1))
        fid = uhlmann_fidelity(
            _projected_normal_choi(direct), _projected_normal_choi(ancilla)
        )
        return 1.0 - fid, lambda: {
            "direct_residual": direct.cptp_residual,
            "ancilla_residual": ancilla.cptp_residual,
        }

    key = f"ancilla|{run.shots_per_setting}"
    return _calibrated_test(box, key, run, run.shots_per_setting, statistic, rng)


def concatenate_tests(
    b1: BoxModel,
    b2: BoxModel,
    psi: PureState,
    shots: int = 10_000,
    *,
    rng: RngStream,
) -> DensityMatrix:
    """Chain two *tests* rather than two boxes.

    The first box's output is tomographically reconstructed, re-prepared as
    an uncorrelated input via its eigen-ensemble, and fed to the second box,
    whose output is reconstructed again.  Branch correlations between the
    stages are deliberately destroyed; the gap to compose_boxes witnesses
    that concatenating tests is not a test of the concatenation.

    ``shots`` is the per-setting budget of each tomography stage.
    """
    psi = as_state(psi)
    run = TomographyRun(shots)
    first = b1.ensemble_output_density(psi)
    first_hat = state_tomography(first, run, rng.child(0))
    second = b2.ensemble_output_density(first_hat.eigen_ensemble())
    return state_tomography(second, run, rng.child(1))


def composition_gap_test(
    b1: BoxModel, second_box: BoxModel, probe_theta: float, shots: int, *, rng: RngStream
) -> TestVerdict:
    """Trace distance from composing two boxes to concatenating their tests.

    Both outputs of the real-amplitude probe at polar angle ``probe_theta``
    are the evidence.  The 0.05 margin dominates tomography error at any
    sane shot budget, so the gap carries no separate error bar.
    """
    probe = PureState.from_bloch(probe_theta, 0.0)
    composed = compose_boxes(b1, second_box).ensemble_output_density(probe)
    staged = concatenate_tests(b1, second_box, probe, shots=shots, rng=rng)
    recon = {"composed_output": composed.matrix, "staged_output": staged.matrix}
    return TestVerdict(trace_distance(composed, staged), 0.05, 0.0, shots, reconstructions=recon)


# ---------------------------------------------------------------------------
# random-access game


def qrac_fidelity_estimate(
    pair: BoxPair, rounds: int, rng: RngStream
) -> TestVerdict:
    """Rule on the transmission fidelity of the a = b post-selected rounds.

    Every round draws two Haar-random target qubits and a uniform choice
    bit; among kept rounds the overlap of Bob's output with the chosen
    target is averaged exactly from the round's output density.  The
    verdict rules on that mean against the quantum ceiling of 5/6 over the
    kept rounds; ``extras`` holds their fraction.

    Rounds are played in blocks of ``QRAC_BLOCK``, block k drawing from
    ``rng.child(k)``: first the block's 2n targets as one normalized complex
    Gaussian array (rows 0..n-1 are psi0, rows n..2n-1 psi1), then the n
    choice bits, then whatever the pair draws.  The fixed block size keeps
    the draws independent of how the work is scheduled.
    """
    rounds = as_integer(rounds, "rounds", least=1)
    fidelities = []
    for block, start in enumerate(range(0, rounds, QRAC_BLOCK)):
        n = min(QRAC_BLOCK, rounds - start)
        gen = rng.child(block).generator
        z = gen.standard_normal((2 * n, 2)) + 1j * gen.standard_normal((2 * n, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        psi0, psi1 = z[:n], z[n:]
        x = gen.integers(2, size=n)
        a, b, rho = pair.play_rounds(psi0, psi1, x, gen)
        a, b, rho = np.asarray(a), np.asarray(b), np.asarray(rho, dtype=complex)
        if a.shape != (n,) or b.shape != (n,) or rho.shape != (n, 2, 2):
            raise InvalidInputError("the pair returned a block of the wrong shape")
        check_densities(rho)
        kept = a == b
        target = np.where(x[:, None] == 0, psi0, psi1)[kept]
        fid = np.einsum("ni,nij,nj->n", target.conj(), rho[kept], target)
        fidelities.append(fid.real)
    rng.tally(rounds)
    sample = np.concatenate(fidelities)
    kept = sample.size
    if not kept:
        raise InvalidInputError("no rounds survived post-selection")
    # fidelities equal to 1 up to rounding can average to 1 + ulp
    f_hat = min(max(float(sample.mean()), 0.0), 1.0)
    spread = float(sample.std(ddof=1)) if kept > 1 else float("nan")
    # the 95% halfwidth over 1.96, as reports carry it: spread / sqrt(kept) can differ in the last bit
    std_error = (1.96 * spread / math.sqrt(kept)) / 1.96
    return TestVerdict(f_hat, QRAC_FIDELITY_CEILING, std_error, kept, extras={"kept_fraction": kept / rounds})


# ---------------------------------------------------------------------------
# bipartite no-signalling structure


@functools.cache
def _kernel_scan_operands(da: int, db: int, sender: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel scan's operand stack and its trace norms, built once per
    ``(da, db, sender)`` and shared: both arrays are read-only.

    The operands are ``kron(a, b)`` for every Hermitian basis element ``a``
    traceless on the sender side and every basis element ``b`` on the
    receiver side, a-major.
    """
    basis_a = hermitian_basis(da)[1 - sender:]
    basis_b = hermitian_basis(db)[sender:]
    # kron(a, b) for every pair, as one broadcast product
    operands = (
        basis_a[:, None, :, None, :, None] * basis_b[None, :, None, :, None, :]
    ).reshape(-1, da * db, da * db)
    norms = trace_norms(operands)
    operands.flags.writeable = False
    norms.flags.writeable = False
    return operands, norms


def _kernel_direction(choi4, dims, sender: int) -> float:
    """Largest normalized marginal response on the receiver side.

    Scans Hermitian basis elements traceless on the sender tensored with
    arbitrary basis elements on the receiver; for each, the receiver
    marginal of the output is compared with the input's size in trace norm.
    The swap channel attains 1.  All operands go through the channel as one
    stack; the stack and its trace norms are built once per shape.
    """
    da, db = dims
    operands, norms = _kernel_scan_operands(da, db, sender)
    outputs = np.einsum("kij,iajb->kab", operands, choi4)
    # partial trace over the sender, by reshape
    trace_out = "kxaxb->kab" if sender == 0 else "kaxbx->kab"
    marginals = np.einsum(trace_out, outputs.reshape(-1, da, db, da, db))
    ratios = trace_norms(marginals) / norms
    return max(0.0, float(np.max(ratios)))


def nsq_signalling_measure(lambda_ab: QuantumChannel, local_dims: tuple) -> tuple[float, float]:
    """How far a bipartite channel signals, as ``(a_to_b, b_to_a)``: 0 for none
    in that direction, 1 for the swap.  No-signalling is linear in the channel
    (Beckman et al., PRA 64, 052309), so the kernel scan decides it exactly
    and the measure draws nothing.
    """
    dims = _local_dims(local_dims, lambda_ab)
    choi4 = lambda_ab.choi4
    return _kernel_direction(choi4, dims, sender=0), _kernel_direction(choi4, dims, sender=1)


def nsq_random_survey(
    n_samples: int,
    local_dims: tuple = (2, 2),
    *,
    rng: RngStream,
    env_dim: int | None = None,
    product_channels: bool = False,
) -> TestVerdict:
    """Survey random bipartite dynamics for no-signalling structure.

    Generic interacting dynamics signal in at least one direction, so the
    expected signalling fraction is 1; a significant fraction of samples
    compatible with no-communication is the anomaly this detector flags.
    A sample is compatible when both directions of
    ``nsq_signalling_measure`` are at most 1e-8.  The survey draws its own
    channels: it never reads a scenario's declared box or pair.
    The verdict statistic is therefore the compatible fraction against a
    1% threshold, with the raw signalling fraction reported alongside.
    With product_channels=True (and no env_dim) the survey draws local
    products only, a control arm that must come out fully compatible.
    Dimensions whose matrices would exceed ``MAX_DIM`` raise before the first draw.
    """
    n_samples = as_integer(n_samples, "n_samples", least=1)
    da, db = _local_dims(local_dims)
    if env_dim is not None:
        env_dim = as_integer(env_dim, "env_dim", least=1)
    # a sample's Choi matrix is d^2 wide and a generic sample's dilation d env;
    # a product sample dilates each factor on at most 4^3 = 64 when d <= 8
    d = da * db
    size = d * (d if product_channels else max(d, d * d if env_dim is None else env_dim))
    if size > MAX_DIM:
        raise InvalidInputError(
            f"local_dims ({da}, {db}) with env_dim {env_dim} need dimension {size};"
            f" the limit is {MAX_DIM}"
        )
    if product_channels and env_dim is not None:
        raise InvalidInputError("env_dim is for generic samples; it cannot be set with product_channels")
    compatible = 0
    for k in range(n_samples):
        stream = rng.child(k)
        if product_channels:
            channel = random_channel(da, da, stream.child(0)).tensor(
                random_channel(db, db, stream.child(1))
            )
        else:
            channel = random_channel(da * db, da * db, stream, env_dim)
        if max(nsq_signalling_measure(channel, (da, db))) <= 1e-8:
            compatible += 1
    rng.tally(n_samples)
    compatible_fraction = compatible / n_samples
    signalling_fraction = 1.0 - compatible_fraction
    if n_samples > 1:
        sigma = math.sqrt(
            compatible_fraction * (1.0 - compatible_fraction) / (n_samples - 1)
        )
    else:
        sigma = float("nan")
    return TestVerdict(
        compatible_fraction,
        0.01,
        sigma,
        n_samples,
        extras={
            "signalling_fraction": signalling_fraction,
            "compatible_fraction": compatible_fraction,
        },
    )

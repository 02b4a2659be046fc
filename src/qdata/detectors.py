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

from .boxes import BoxModel, BoxPair, LinearBox, _composed_outputs, _local_dims, output_densities
from .channels import QuantumChannel, _random_channels, _tensors
from .linalg import (
    MAX_DIM,
    InvalidInputError,
    _eigh_descending,
    as_integer,
    hermitian_basis,
    is_hermitian,
    nearest_density_matrix,
    trace_distance,
    trace_norm,
    trace_norms,
    worst_fidelity,
)
from .rng import RngStream, _draw_each
from .states import (
    DensityMatrix,
    Ensemble,
    PureState,
    _eigen_rows,
    as_state,
    check_densities,
    ket,
    minus_state,
    plus_state,
)
from .tomography import (
    TomographyRun,
    _state_tomographies,
    canonical_probe_basis,
    process_tomography_ancilla,
    process_tomography_direct,
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
    "helstrom_tests",
    "canonical_ensemble_pair",
    "ensemble_signalling_test",
    "ensemble_signalling_tests",
    "basis_invariance_test",
    "ancilla_consistency_test",
    "concatenate_tests",
    "composition_gap_test",
    "composition_gap_tests",
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
# Samples per nsq-survey block, drawn and checked as one stack.  Sample k
# draws from rng.child(k) whatever the block, so the size moves no draw; it
# bounds the per-block arrays: a survey at the default dimensions peaks at
# about 0.4 MB, whatever its n_samples.
NSQ_BLOCK = 16


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
    carry an inconsistent ruling.  The numbers are Python floats and an
    int, and ``extras`` holds plain JSON values (:func:`_plain`), both made
    once, at construction.  ``reconstructions`` holds the matrices a
    detector hands its report as evidence, outside the ruling.
    """

    __test__ = False  # not a pytest test class, whatever its name says

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
        if self.extras is not None:
            object.__setattr__(self, "extras", _plain(self.extras))


def _plain(value):
    """``value`` as plain JSON values: a numpy number as a Python one, a tuple as a list, and
    a NaN or infinite float as None (null)."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


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


def _optimal_success(outputs: np.ndarray, priors) -> np.ndarray:
    """Success probability of each hypothesis under the optimal measurement, per output pair.

    ``outputs`` stacks each box's two output densities, (boxes, 2, d, d);
    the result is (boxes, 2).  One ``eigh`` diagonalizes every difference
    operator.  Null directions of a difference do not affect the success
    probability; they are assigned to the hypothesis with the larger prior.
    Each value is bit for bit the one-pair computation, whose projector
    onto the first hypothesis spans the selected eigenvectors, so boxes
    are grouped by their selection.
    """
    delta = priors[0] * outputs[:, 0] - priors[1] * outputs[:, 1]
    if not is_hermitian(delta):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    eigvals, eigvecs = _eigh_descending(delta)
    to_first = eigvals > 1e-12
    if priors[0] >= priors[1]:
        to_first |= np.abs(eigvals) <= 1e-12
    pi1 = np.zeros_like(delta)
    masks, groups = np.unique(to_first, axis=0, return_inverse=True)
    for g, mask in enumerate(masks):
        if mask.any():
            members = groups.reshape(-1) == g
            chosen = eigvecs[members][..., mask]
            pi1[members] = chosen @ chosen.conj().swapaxes(-1, -2)
    pi2 = np.eye(delta.shape[-1]) - pi1
    q = np.stack([pi1 @ outputs[:, 0], pi2 @ outputs[:, 1]], axis=1)
    return np.clip(np.real(np.trace(q, axis1=-2, axis2=-1)), 0.0, 1.0)


def helstrom_tests(boxes, setup: HelstromSetup, trials: int = 10_000, *, rng) -> list:
    """:func:`helstrom_test` of each box in ``boxes`` on its stream in ``rng``.

    Both hypotheses go through every box as one stack
    (:func:`qdata.boxes.output_densities`) and the optimal measurements
    come from one eigendecomposition; each box then draws its trials on
    its own stream, on the per-thread generator re-keyed to it
    (:func:`qdata.rng._draw_each`).  Every verdict is bit for bit the
    one-box call's.
    """
    trials = as_integer(trials, "trials", least=1)
    if len(rng) != len(boxes):
        raise InvalidInputError("a stack needs exactly one stream per box")
    if not boxes:
        return []
    p1, p2 = setup.priors
    success = _optimal_success(output_densities(boxes, setup.states), setup.priors).tolist()

    def draw(gen, q):
        n1 = int(gen.binomial(trials, p1))
        return int(gen.binomial(n1, q[0])) + int(gen.binomial(trials - n1, q[1]))

    verdicts = []
    for (q1, q2), stream, successes in zip(success, rng, _draw_each(rng, draw, success)):
        stream.tally(trials)
        p_hat = successes / trials
        std_error = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        verdicts.append(
            TestVerdict(p_hat, setup.bound, std_error, trials, extras={"exact_success": p1 * q1 + p2 * q2})
        )
    return verdicts


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
    return helstrom_tests([box], setup, trials, rng=[rng])[0]


# ---------------------------------------------------------------------------
# equal-density ensemble pairs


@functools.cache
def canonical_ensemble_pair() -> tuple:
    """The z-basis and x-basis halves of the maximally mixed qubit, built once."""
    e1 = Ensemble((0.5, 0.5), (ket(0), ket(1)))
    e2 = Ensemble((0.5, 0.5), (plus_state(), minus_state()))
    return e1, e2


def ensemble_signalling_tests(
    boxes, e1: Ensemble | None = None, e2: Ensemble | None = None, *, rng=None
) -> list:
    """:func:`ensemble_signalling_test` of each box in ``boxes``.

    Both ensembles go through every box as one stack
    (:func:`qdata.boxes.output_densities`) and the trace distances are one
    stacked trace norm; every verdict is bit for bit the one-box call's.
    ``rng``, one stream per box, is never drawn.
    """
    if (e1 is None) != (e2 is None):
        raise InvalidInputError("give both ensembles or neither")
    if e1 is None:
        e1, e2 = canonical_ensemble_pair()
    elif trace_distance(e1.density(), e2.density()) > 1e-10:
        raise InvalidInputError("the two ensembles must have equal density matrices")
    if not boxes:
        return []
    outputs = output_densities(boxes, (e1, e2))
    distances = 0.5 * trace_norms(outputs[:, 0] - outputs[:, 1])
    return [TestVerdict(statistic, 1e-6, 0.0, 0) for statistic in distances.tolist()]


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
    return ensemble_signalling_tests([box], e1, e2)[0]


# ---------------------------------------------------------------------------
# tomography-based tests and their null-threshold calibration

_calibration_lock = threading.Lock()
# (budget key, exact) -> Future of (threshold, spread); the first caller computes it
_calibration_cache: dict = {}


def _calibrated_null(key: str, statistic_fn, *, exact: tuple = ()) -> tuple:
    """99th-percentile threshold and spread of the identity box's statistic.

    statistic_fn(identity_box, streams) -> values is called once, on the
    list of NULL_REPLICATIONS independent streams derived from the fixed
    calibration seed and the budget key, and returns one value per stream,
    so it can treat the replications as one stack.  ``exact`` holds, bit
    for bit, any settings that the key prints rounded; the cache keeps one
    entry per ``(key, exact)``, so settings that round alike never share a
    threshold.  Each entry is computed once: its concurrent callers wait
    for the first one, while different entries calibrate in parallel.  A
    failed calibration is not cached; its waiters see the error and a later
    call computes afresh.
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
        streams = [root.child(rep) for rep in range(NULL_REPLICATIONS)]
        stats = np.asarray(statistic_fn(identity_box, streams), dtype=float)
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


def _infidelities(box, streams: list, tomographies) -> tuple:
    """One minus the worst fidelity of each stream's projected Choi estimates, and the
    last stream's reconstructions, ``tomographies(box, stream)``.

    The normalized Choi matrices fill one (streams, processes, d, d) stack
    as each stream is drawn, so no stream's reconstructions outlive the
    next; the stack is projected and compared as a whole.
    """
    chois = None
    for i, stream in enumerate(streams):
        recs = tomographies(box, stream)
        if chois is None:
            chois = np.empty((len(streams), len(recs)) + recs[0].choi.shape, dtype=complex)
        chois[i] = [rec.normalized_choi() for rec in recs]
    return 1.0 - worst_fidelity(nearest_density_matrix(chois)), recs


def _calibrated_test(
    box, key: str, run: TomographyRun, n_trials: int, tomographies, extras, rng, exact: tuple = ()
) -> TestVerdict:
    """Rule on :func:`_infidelities` of ``tomographies`` against its null under ``(key, exact)``.

    The calibration evaluates its NULL_REPLICATIONS streams as one stack;
    the job's own evaluation is the same code on a stack of one stream,
    ``[rng]``.  Only the job's reconstructions go to ``extras(recs)``, which
    builds the report extras.  The evidence is the delta-0 direct
    reconstruction at ``run`` on child 1 << 20, clear of the statistics'
    children.
    """
    threshold, sigma = _calibrated_null(
        key, lambda null_box, streams: _infidelities(null_box, streams, tomographies)[0], exact=exact
    )
    values, recs = _infidelities(box, [rng], tomographies)
    report = process_tomography_direct(box, canonical_probe_basis(2), run, rng.child(1 << 20))
    recon = {"choi": report.normalized_choi()}
    return TestVerdict(values[0], threshold, sigma, n_trials, extras=extras(recs), reconstructions=recon)


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

    def tomographies(probed, stream):
        return [
            process_tomography_direct(
                probed, canonical_probe_basis(probed.dim_in, delta), run, stream.child(k)
            )
            for k, delta in enumerate(deltas)
        ]

    def extras(recs):
        return {"cptp_residuals": tuple(rec.cptp_residual for rec in recs)}

    # the key seeds the calibration and prints the deltas rounded; hex keeps them exact
    key = "basis|{}|{}|{}".format(
        ",".join(f"{d:.12g}" for d in deltas), run.shots_per_setting, box.dim_in
    )
    exact = tuple(d.hex() for d in deltas)
    n_trials = len(deltas) * run.shots_per_setting
    return _calibrated_test(box, key, run, n_trials, tomographies, extras, rng, exact)


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
    basis = canonical_probe_basis(2, 0.0)

    def tomographies(probed, stream):
        return [
            process_tomography_direct(probed, basis, run, stream.child(0)),
            process_tomography_ancilla(probed, joint_run, stream.child(1)),
        ]

    def extras(recs):
        direct, ancilla = recs
        return {"direct_residual": direct.cptp_residual, "ancilla_residual": ancilla.cptp_residual}

    key = f"ancilla|{run.shots_per_setting}"
    return _calibrated_test(box, key, run, run.shots_per_setting, tomographies, extras, rng)


def _concatenated(
    firsts, second: BoxModel, psi: PureState, run: TomographyRun, streams
) -> np.ndarray:
    """The staged outputs of each first box in ``firsts`` followed by ``second``, as one stack.

    Box k draws from ``streams[k]``: its first stage on child 0, its second
    on child 1.  Each stage is one stacked state tomography over all the
    boxes, each reconstruction bit for bit as alone.  The first-stage
    estimates are re-prepared as their eigen-ensembles by one stacked
    eigensolve (:func:`qdata.states._eigen_rows`), whose rows are the
    second box's inputs as they stand.
    """
    outputs = output_densities(firsts, [psi])[:, 0]
    first_hats = _state_tomographies(outputs, run, [s.child(0) for s in streams])
    # each estimate is re-prepared as its eigen-ensemble, one input of the second box each
    outputs = output_densities([second], _eigen_rows(first_hats))[0]
    return _state_tomographies(outputs, run, [s.child(1) for s in streams])


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
    staged = _concatenated([b1], b2, as_state(psi), TomographyRun(shots), [rng])
    return DensityMatrix._of(staged[0])


def composition_gap_tests(
    boxes, second_box: BoxModel, probe_theta: float, shots: int, *, rng
) -> list:
    """:func:`composition_gap_test` of each first box in ``boxes`` on its stream in ``rng``.

    The streams must share one seed, and each takes its own box's samples
    on its tally; no streams, or streams of several seeds, raise
    :class:`InvalidInputError` before any draw.  The composed outputs are
    one stack (:func:`qdata.boxes._composed_outputs`: linear pairs as one
    stacked link product, checked as channels once), each tomography stage
    runs once over all the boxes and the gaps are one stacked trace norm;
    every verdict is bit for bit the one-box call's.
    """
    probe = PureState.from_bloch(probe_theta, 0.0)
    composed = _composed_outputs(boxes, second_box, [probe])[:, 0]
    staged = _concatenated(boxes, second_box, probe, TomographyRun(shots), rng)
    gaps = 0.5 * trace_norms(composed - staged)
    return [
        TestVerdict(
            gap,
            0.05,
            0.0,
            shots,
            reconstructions={"composed_output": composed[k], "staged_output": staged[k]},
        )
        for k, gap in enumerate(gaps)
    ]


def composition_gap_test(
    b1: BoxModel, second_box: BoxModel, probe_theta: float, shots: int, *, rng: RngStream
) -> TestVerdict:
    """Trace distance from composing two boxes to concatenating their tests.

    Both outputs of the real-amplitude probe at polar angle ``probe_theta``
    are the evidence.  The threshold is a fixed margin of 0.05 and the gap
    carries no error bar, whatever the shot budget.  The margin does not
    dominate tomography error at small budgets: 10 random CPTP first boxes
    with amplitude damping 0.3 second and ``probe_theta`` 1.0, 40 seeds
    each, read ``post-quantum`` in 342 of 400 runs at 100 shots, 41 at
    1,000 and none at 2,048.
    """
    return composition_gap_tests([b1], second_box, probe_theta, shots, rng=[rng])[0]


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


@functools.cache
def _kernel_scan_terms(da: int, db: int) -> tuple:
    """Both directions' operands as their nonzero entries, built once per
    ``(da, db)`` and shared: ``(rows, cols, vals, norms, count)``.

    Operand k of the sender-0 stack (``count`` of them) followed by the
    sender-1 stack of :func:`_kernel_scan_operands` holds ``vals[k, t]`` at
    ``(rows[k, t], cols[k, t])``, in row-major order.  A Hermitian basis
    element has at most one nonzero per row, and so has a kron of two, so
    every other entry is zero; operands with fewer nonzeros are padded at the
    end with zero-valued terms.  ``norms`` are the operands' trace norms.
    The arrays are read-only.
    """
    (first, first_norms), (second, second_norms) = (_kernel_scan_operands(da, db, s) for s in (0, 1))
    operands = np.concatenate([first, second])
    entries = [np.nonzero(operand) for operand in operands]
    width = max(len(rows) for rows, _ in entries)
    rows, cols = np.zeros((2, len(operands), width), dtype=np.intp)
    vals = np.zeros((len(operands), width), dtype=complex)
    for k, (r, c) in enumerate(entries):
        rows[k, : len(r)], cols[k, : len(c)], vals[k, : len(r)] = r, c, operands[k, r, c]
    norms = np.concatenate([first_norms, second_norms])
    for array in (rows, cols, vals, norms):
        array.flags.writeable = False
    return rows, cols, vals, norms, len(first)


def _kernel_scan(choi4, dims) -> tuple[float, float]:
    """Largest normalized marginal response on the receiver side, per sender.

    Scans Hermitian basis elements traceless on the sender tensored with
    arbitrary basis elements on the receiver; for each, the receiver
    marginal of the output is compared with the input's size in trace norm.
    The swap channel attains 1 in both directions.  Both directions' operands
    go through the channel as one stack of their nonzero entries
    (:func:`_kernel_scan_terms`): each output sums its terms in row-major
    order from 0.0, as the dense ``einsum("kij,iajb->kab")`` accumulates, so
    the skipped zero terms change no bit.  Equal local dimensions take one
    eigensolve for both directions' marginals.
    """
    da, db = dims
    rows, cols, vals, norms, count = _kernel_scan_terms(da, db)
    # adding 0.0 to the sum from the first term is the sum from 0.0: only a -0.0 changes
    outputs = np.add.reduce(vals[:, :, None, None] * choi4[rows, :, cols, :], axis=1) + 0.0
    outputs = outputs.reshape(-1, da, db, da, db)
    # partial trace over the sender, by reshape
    marginals = (np.einsum("kxaxb->kab", outputs[:count]), np.einsum("kaxbx->kab", outputs[count:]))
    if da == db:
        sizes = trace_norms(np.concatenate(marginals))
    else:
        sizes = np.concatenate([trace_norms(marginal) for marginal in marginals])
    ratios = sizes / norms
    return max(0.0, float(np.max(ratios[:count]))), max(0.0, float(np.max(ratios[count:])))


def _kernel_direction(choi4, dims, sender: int) -> float:
    """The kernel scan's value for one sender: ``_kernel_scan(choi4, dims)[sender]``."""
    return _kernel_scan(choi4, dims)[sender]


def nsq_signalling_measure(lambda_ab: QuantumChannel, local_dims: tuple) -> tuple[float, float]:
    """How far a bipartite channel signals, as ``(a_to_b, b_to_a)``: 0 for none
    in that direction, 1 for the swap.  No-signalling is linear in the channel
    (Beckman et al., PRA 64, 052309), so the kernel scan decides it exactly
    and the measure draws nothing.
    """
    return _kernel_scan(lambda_ab.choi4, _local_dims(local_dims, lambda_ab))


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

    Sample k is ``random_channel(d, d, rng.child(k), env_dim)`` with d the
    product of ``local_dims``, or in the product arm the tensor of
    ``random_channel(da, da, rng.child(k).child(0))`` and its ``db`` twin on
    ``child(1)``.  Samples are built in blocks of ``NSQ_BLOCK``, each block
    as one stack (:func:`qdata.channels._random_channels`, and
    :func:`qdata.channels._tensors` for the products), bit for bit the
    one-sample channels; each sample is then scanned on its own, both
    directions in one pass (:func:`nsq_signalling_measure`).
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
    for start in range(0, n_samples, NSQ_BLOCK):
        streams = [rng.child(k) for k in range(start, min(start + NSQ_BLOCK, n_samples))]
        if product_channels:
            channels = _tensors(
                _random_channels(da, da, [stream.child(0) for stream in streams]),
                _random_channels(db, db, [stream.child(1) for stream in streams]),
            )
        else:
            channels = _random_channels(da * db, da * db, streams, env_dim)
        for channel in channels:
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

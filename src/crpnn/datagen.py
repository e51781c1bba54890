"""Synthetic experiment inputs: random polynomial targets and sine trajectories.

Targets are relation spectra, the type trained models expand to; the
generator draws sparse random ones (a seeded sample of distinct monomials
with uniform coefficients), standing in for externally-published benchmark
functions of the same item counts.  The standard excitation signal is the
five-sine trajectory

    x1 = sin(2t), x2 = sin(3t), x3 = sin(5t), x4 = sin(7t + 20), x5 = sin(11t)

sampled on a uniform grid over [t_start, t_end] (radians throughout).
"""

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .csvio import FormatError, decode, read_csv, write_csv
from .linalg import ShapeError, as_array, check_finite
from .spectrum import RelationSpectrum, _graded_exponents, evaluate_spectrum_cols

SINE_INPUT_DIM = 5
MAX_MONOMIAL_UNIVERSE = 2 * 10 ** 6


class CapacityError(ValueError):
    """More monomials requested than the degree bound makes available."""


class DatasetFormatError(FormatError):
    """Dataset CSV is malformed; carries the offending line number."""


@dataclass(frozen=True)
class Dataset:
    """Column-sample input matrix (n x K) paired with targets (m x K)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", as_array(self.inputs, 2, "inputs"))
        object.__setattr__(self, "targets", as_array(self.targets, 2, "targets"))
        if self.inputs.shape[1] != self.targets.shape[1]:
            raise ShapeError(
                f"inputs have {self.inputs.shape[1]} columns, "
                f"targets {self.targets.shape[1]}"
            )
        if self.inputs.shape[1] == 0:
            raise ShapeError("dataset has no samples")
        check_finite(self.inputs, "dataset inputs")
        check_finite(self.targets, "dataset targets")

    @property
    def n(self):
        return self.inputs.shape[0]

    @property
    def m(self):
        return self.targets.shape[0]

    @property
    def size(self):
        return self.inputs.shape[1]


def gen_random_polynomial(n, max_degree, n_items, coeff_low=-1.0, coeff_high=1.0, seed=0):
    """A one-output RelationSpectrum of n_items distinct monomials of total
    degree <= max_degree, its terms in the order they were drawn (the order
    in which evaluation sums them, so it fixes every dataset's bits).

    Monomials are drawn uniformly without replacement from the full universe,
    coefficients uniformly from [coeff_low, coeff_high], whose bounds and
    width must be finite; the whole draw is redone (advancing the seeded
    generator) until some sampled item has the full requested degree and
    every coefficient is nonzero, so the advertised item count and max
    degree always hold.  Deterministic per seed.
    """
    if n < 1 or max_degree < 0 or n_items < 1:
        raise ValueError(
            f"invalid request: n={n}, max_degree={max_degree}, n_items={n_items}"
        )
    try:
        finite = math.isfinite(coeff_high - coeff_low)  # also false when a bound is nan or infinite
    except OverflowError:  # an integer bound beyond float range
        finite = False
    if not finite:
        raise ValueError(
            f"coefficient bounds must be finite with a finite width, got [{coeff_low}, {coeff_high}]"
        )
    if coeff_low > coeff_high or (coeff_low == 0.0 and coeff_high == 0.0):
        raise ValueError(f"bad coefficient range [{coeff_low}, {coeff_high}]")
    universe_size = math.comb(n + max_degree, n)
    if n_items > universe_size:
        raise CapacityError(
            f"requested {n_items} items but only {universe_size} monomials of "
            f"degree <= {max_degree} exist in {n} variables"
        )
    if universe_size > MAX_MONOMIAL_UNIVERSE:
        raise CapacityError(
            f"monomial universe {universe_size} exceeds the generator bound "
            f"{MAX_MONOMIAL_UNIVERSE}"
        )
    basis = _graded_exponents(n, max_degree)
    universe = basis[np.lexsort(basis.T)]  # last exponent varies slowest
    rng = np.random.default_rng(seed)
    while True:
        picks = rng.choice(universe_size, size=n_items, replace=False)
        monomials = [tuple(e) for e in universe[picks].tolist()]
        if max_degree and not any(sum(e) == max_degree for e in monomials):
            continue
        coeffs = rng.uniform(coeff_low, coeff_high, size=n_items)
        if np.any(coeffs == 0.0):
            continue
        break
    terms = {e: float(c) for e, c in zip(monomials, coeffs)}
    return RelationSpectrum(n=n, m=1, terms=(terms,))


def sample_sine_trajectory(n_samples, t_start=0.0, t_end=7.0):
    """Five-sine excitation on a uniform time grid, endpoints included (5 x K);
    a range whose grid or sines are not finite is refused."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if not t_end > t_start:
        raise ValueError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linspace(t_start, t_end, n_samples)
        trajectory = np.stack(
            [
                np.sin(2.0 * t),
                np.sin(3.0 * t),
                np.sin(5.0 * t),
                np.sin(7.0 * t + 20.0),
                np.sin(11.0 * t),
            ]
        )
    if not np.isfinite(trajectory).all():
        raise ValueError(f"time range [{t_start}, {t_end}] gives a non-finite trajectory")
    return trajectory


def default_inputs(n, samples, rng, t_start=0.0, t_end=7.0):
    """Column samples (n x K): the five-sine trajectory when n is 5, which
    leaves ``rng`` untouched, otherwise uniforms on [-1, 1] drawn from it."""
    if n == SINE_INPUT_DIM:
        return sample_sine_trajectory(samples, t_start, t_end)
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    return rng.uniform(-1.0, 1.0, size=(n, samples))


def make_dataset(spectrum, inputs):
    """Evaluate a target spectrum, of any output count m, on n x K column
    samples; returns a Dataset with m x K targets."""
    return Dataset(inputs=inputs, targets=evaluate_spectrum_cols(spectrum, inputs))


def write_dataset_csv(dataset):
    """CSV bytes with header x1..xn,y1..ym and one sample per row."""
    header = [f"x{i + 1}" for i in range(dataset.n)] + [f"y{j + 1}" for j in range(dataset.m)]
    return write_csv(header, np.concatenate((dataset.inputs, dataset.targets)).T.tolist())


def read_dataset_csv(data):
    """Parse CSV bytes produced by :func:`write_dataset_csv`.

    A well-formed numeric body is parsed in one ``np.loadtxt`` pass.  Any
    body that pass does not take whole (a bad or non-finite cell, quotes, a
    wrong width, no rows, a numpy warning) is parsed again cell by cell,
    which accepts what ``float()`` accepts and names the first bad line.
    """
    text = decode(data, DatasetFormatError)
    header, rows = read_csv(text, DatasetFormatError)
    n = 0
    while n < len(header) and header[n] == f"x{n + 1}":
        n += 1
    m = 0
    while n + m < len(header) and header[n + m] == f"y{m + 1}":
        m += 1
    if n < 1 or m < 1 or n + m != len(header):
        raise DatasetFormatError(
            f"header must read x1..xn,y1..ym, got {','.join(header)}", line=1
        )
    block = _numeric_block(text, n + m)
    if block is None:
        block = _parse_rows(rows)
    return Dataset(inputs=block[:, :n].T, targets=block[:, n:].T)


def _numeric_block(text, width):
    """The body below the header as a (K, width) finite float64 block, or
    None when the row parser must decide."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(
                io.StringIO(text), delimiter=",", comments=None, skiprows=1, ndmin=2
            )
    except (ValueError, Warning):
        return None
    if block.shape[0] == 0 or block.shape[1] != width or not np.isfinite(block).all():
        return None
    return block


def _parse_rows(rows):
    """The (K, width) block of the rows of :func:`read_csv`, cell by cell."""
    values = []
    for lineno, row in rows:
        try:
            cells = [float(cell) for cell in row]
        except ValueError as exc:
            raise DatasetFormatError(f"non-numeric cell: {exc}", line=lineno) from exc
        if not all(math.isfinite(v) for v in cells):
            raise DatasetFormatError("non-finite value", line=lineno)
        values.append(cells)
    if not values:
        raise DatasetFormatError("dataset has a header but no samples", line=2)
    return np.asarray(values)

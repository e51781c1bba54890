"""Exact expansion of a trained model into its relation spectrum.

A relation spectrum is the explicit multivariate polynomial a network
computes, one sparse coefficient map per output: keys are exponent tuples of
length n (one non-negative integer per input variable), values are real
coefficients.  It is obtained by propagating polynomials through the layers,
not by sampling and refitting, so forward evaluation and spectrum evaluation
agree to floating-point accuracy.

Coordinate j's polynomial (bias coordinate last) is row j of a dense
(n+1) x M block over the M = C(n+L, n) monomials of degree <= L, in graded
order: total degree, then lexicographic, as in the CSV export.  A linear map
combines rows, adding input rows in order and skipping zero weights, so the
sums are those of a term-by-term expansion bit for bit; Hadamard with the
augmented input (x_j^c for the first hidden layer) scatters row j's columns.
Monomials of degree <= d form a prefix, so a layer of degree d touches only
C(n+d, n) columns.  Two blocks serve all layers, 16(n+1)M bytes; the guard
refuses (n+1)M > MAX_DENSE_ENTRIES.

Canonical form: no stored coefficient is exactly zero, and coefficients
below 1e-14 of the output's largest magnitude (float dust from cancellation)
are dropped.  Structural zeros of the architecture therefore show up as
absent keys.
"""

import math
from dataclasses import dataclass

import numpy as np

from .csvio import FormatError, read_csv, write_csv
from .linalg import ShapeError, as_array
from .network import MAX_ORDER

MAX_DENSE_ENTRIES = 6 * 10 ** 6
MAX_OUTPUT_INDEX = 10 ** 5  # import builds one map per index up to the largest
MAX_EXPONENT = MAX_ORDER  # no model exports more; evaluation builds one K-column power per exponent up to the largest
CANONICAL_REL_EPS = 1e-14
SUPPORT_THRESHOLD = 1e-9

CSV_OUTPUT_COL = "output"
CSV_COEFF_COL = "coefficient"


class SpectrumSizeError(ValueError):
    """Dense coefficient block exceeds the expansion guard."""


class SpectrumFormatError(FormatError):
    """Spectrum CSV is malformed; carries the offending line number."""


@dataclass(frozen=True)
class RelationSpectrum:
    """Per-output sparse map from exponent tuple to coefficient.

    Construction refuses, with ShapeError, an m other than the number of maps
    and an exponent key whose length is not n.
    """

    n: int
    m: int
    terms: tuple

    def __post_init__(self):
        if len(self.terms) != self.m:
            raise ShapeError(
                f"spectrum has m={self.m} outputs but {len(self.terms)} term maps"
            )
        bad = next((e for t in self.terms for e in t if len(e) != self.n), None)
        if bad is not None:
            raise ShapeError(
                f"exponent key {bad} has {len(bad)} entries, not one per input (n={self.n})"
            )

    def coefficient(self, output, exponents):
        return self.terms[output].get(tuple(exponents), 0.0)


def _graded_exponents(n, degree):
    """Exponent rows of every monomial in n variables of total degree <= degree.

    Rows are sorted by total degree, then lexicographically: the order of the
    CSV export, in which the monomials of degree <= d form a prefix.  The
    build emits them lexicographically, so a stable sort by degree suffices.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n):
        counts = degree - rows.sum(axis=1) + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.repeat(rows, counts, axis=0)
        rows = np.column_stack([rows, np.arange(len(rows)) - starts])
    return rows[np.argsort(rows.sum(axis=1), kind="stable")]


def _shift_map(basis, amount):
    """Per j, the row of e + amount * unit_j for each row e of degree <= L - amount.

    The shift keeps graded order and maps those rows onto the rows with
    e_j >= amount, so it sends the k-th of the one to the k-th of the other.
    """
    return np.stack([np.flatnonzero(col >= amount) for col in basis.T]).astype(np.int32)


def _accumulate(weights, rows, out):
    """out = sum_j weights[j] * rows[j], added in j order, zero weights skipped."""
    out[:] = 0.0
    for j in np.flatnonzero(weights):
        out += weights[j] * rows[j]


def _canonical(row, basis):
    """Sparse map of a dense coefficient row, without zeros and float dust."""
    mags = np.abs(row)
    top = mags.max()
    if not np.isfinite(top):
        raise FloatingPointError("expansion overflowed: an output has non-finite coefficients")
    if top == 0.0:
        return {}
    keep = np.flatnonzero((mags >= CANONICAL_REL_EPS * top) & (row != 0.0))
    return dict(zip(map(tuple, basis[keep].tolist()), row[keep].tolist()))


def expand_to_spectrum(model):
    """Expand a model into the exact polynomial it computes per output."""
    spec, weights = model.spec, model.weights
    n = spec.n
    size = math.comb(n + spec.order, n)
    if (n + 1) * size > MAX_DENSE_ENTRIES:
        raise SpectrumSizeError(
            f"dense block (n+1) * C(n+L, n) = {(n + 1) * size} exceeds the "
            f"expansion guard of {MAX_DENSE_ENTRIES} entries"
        )
    basis = _graded_exponents(n, spec.order)
    hidden = weights[:-1]
    amounts = [spec.power] + [1] * (len(hidden) - 1)
    shifts = {a: _shift_map(basis, a) for a in set(amounts)}
    coeffs = np.zeros((n + 1, size))  # layer inputs, bias coordinate last
    mixed = np.empty((n + 1, size))   # linear-map outputs
    coeffs[:n, 1:n + 1] = basis[1:n + 1].T  # the degree-1 rows are the x_j
    coeffs[n, 0] = 1.0
    live, degree = n + 1, 1
    with np.errstate(over="ignore", invalid="ignore"):
        for w, amount in zip(hidden, amounts):
            for i in range(n + 1):
                _accumulate(w[i], coeffs[:, :live], mixed[i, :live])
            degree += amount
            grown = math.comb(n + degree, n)
            coeffs[:, :grown] = 0.0
            coeffs[n, :live] = mixed[n, :live]
            coeffs[np.arange(n)[:, None], shifts[amount][:, :live]] = mixed[:n, :live]
            live = grown
        terms = []
        for w in weights[-1]:
            _accumulate(w, coeffs[:, :live], mixed[0, :live])
            terms.append(_canonical(mixed[0, :live], basis))
    return RelationSpectrum(n=n, m=spec.m, terms=tuple(terms))


def _power_tables(x, max_exps):
    """Per-variable power ladders built by repeated multiplication."""
    tables = []
    for xi, top in zip(x, max_exps):
        ladder = [np.ones_like(xi), xi]
        while len(ladder) <= top:
            ladder.append(ladder[-1] * xi)
        tables.append(ladder)
    return tables


def _max_exponents(spectrum):
    exps = [e for terms in spectrum.terms for e in terms]
    return np.array(exps, dtype=np.int64).reshape(-1, spectrum.n).max(axis=0, initial=0)


def evaluate_spectrum(spectrum, x):
    """Evaluate the polynomial at a single point; returns the m-vector."""
    return evaluate_spectrum_cols(spectrum, as_array(x, 1, "input vector").reshape(-1, 1)).ravel()


def evaluate_spectrum_cols(spectrum, xs):
    """Evaluate at every column of an n x K matrix; returns m x K."""
    xs = as_array(xs, 2, "input matrix")
    if xs.shape[0] != spectrum.n:
        raise ShapeError(f"spectrum expects {spectrum.n} input rows, got {xs.shape[0]}")
    ys = np.zeros((spectrum.m, xs.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _power_tables(xs, _max_exponents(spectrum))
        for out_idx, terms in enumerate(spectrum.terms):
            acc = ys[out_idx]
            for exps, coef in terms.items():
                v = None
                for i, e in enumerate(exps):
                    if e:
                        v = tables[i][e] if v is None else v * tables[i][e]
                acc += coef if v is None else coef * v
    return ys


def compare_spectra(a, b):
    """Worst coefficient gap and support mismatch between two spectra.

    Absent coefficients count as zero.  The second value is the number of
    monomials present in exactly one spectrum with magnitude above 1e-9.
    """
    if a.n != b.n or a.m != b.m:
        raise ShapeError(
            f"spectra differ in dimensions: ({a.n}, {a.m}) vs ({b.n}, {b.m})"
        )
    max_diff = 0.0
    support_mismatch = 0
    for ta, tb in zip(a.terms, b.terms):
        for key in ta.keys() | tb.keys():
            ca = ta.get(key)
            cb = tb.get(key)
            diff = abs((ca or 0.0) - (cb or 0.0))
            if diff > max_diff:
                max_diff = diff
            if (ca is None) != (cb is None):
                present = ca if cb is None else cb
                if abs(present) > SUPPORT_THRESHOLD:
                    support_mismatch += 1
    return max_diff, support_mismatch


def export_spectrum(spectrum):
    """Write the spectrum as CSV bytes: e_1..e_n, output, coefficient.

    Rows are sorted by (output, total degree, exponents) so exports are
    diff-stable; coefficients use round-trip decimal precision.
    """
    header = [f"e_{i + 1}" for i in range(spectrum.n)] + [CSV_OUTPUT_COL, CSV_COEFF_COL]
    rows = (
        (*exps, out_idx, float(terms[exps]))
        for out_idx, terms in enumerate(spectrum.terms)
        for exps in sorted(terms, key=lambda e: (sum(e), e))
    )
    return write_csv(header, rows)


def import_spectrum(data):
    """Parse CSV bytes produced by :func:`export_spectrum`.

    The schema carries no output count, so m is inferred as the largest
    output index + 1 (1 for a term-less file); an index above
    MAX_OUTPUT_INDEX or an exponent above MAX_EXPONENT is refused.
    Exact-zero coefficients are dropped to keep the canonical form.
    """
    header, rows = read_csv(data, SpectrumFormatError)
    if len(header) < 3 or header[-2:] != [CSV_OUTPUT_COL, CSV_COEFF_COL]:
        raise SpectrumFormatError(
            f"header must end with '{CSV_OUTPUT_COL},{CSV_COEFF_COL}'", line=1
        )
    n = len(header) - 2
    expected = [f"e_{i + 1}" for i in range(n)]
    if header[:n] != expected:
        raise SpectrumFormatError(
            f"exponent columns must be {','.join(expected)}", line=1
        )

    per_output = {}
    seen = set()
    for lineno, row in rows:
        try:
            exps = tuple(int(cell) for cell in row[:n])
            out_idx = int(row[n])
            coef = float(row[n + 1])
        except ValueError as exc:
            raise SpectrumFormatError(f"non-numeric cell: {exc}", line=lineno) from exc
        if any(e < 0 for e in exps):
            raise SpectrumFormatError(f"negative exponent in {exps}", line=lineno)
        if any(e > MAX_EXPONENT for e in exps):
            raise SpectrumFormatError(
                f"exponent in {exps} exceeds the import guard of {MAX_EXPONENT}", line=lineno
            )
        if out_idx < 0:
            raise SpectrumFormatError(f"negative output index {out_idx}", line=lineno)
        if out_idx > MAX_OUTPUT_INDEX:
            raise SpectrumFormatError(
                f"output index {out_idx} exceeds the import guard of {MAX_OUTPUT_INDEX}",
                line=lineno,
            )
        if not math.isfinite(coef):
            raise SpectrumFormatError(f"non-finite coefficient {row[n + 1]}", line=lineno)
        if (out_idx, exps) in seen:
            raise SpectrumFormatError(
                f"duplicate monomial {exps} for output {out_idx}", line=lineno
            )
        seen.add((out_idx, exps))
        if coef != 0.0:
            per_output.setdefault(out_idx, {})[exps] = coef

    m = max((idx for idx, _ in seen), default=0) + 1
    return RelationSpectrum(
        n=n, m=m, terms=tuple(per_output.get(i, {}) for i in range(m))
    )

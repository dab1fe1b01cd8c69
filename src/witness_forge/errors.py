"""Exception taxonomy shared by all modules.

Three branches matter for the command-line surface: input problems (bad
files, bad arguments) exit with code 1, domain violations (valid input
that breaks a mathematical precondition) exit with code 2, and failure
of LAPACK's Hermitian eigensolver to converge exits with code 3.
"""

from __future__ import annotations


class WitnessForgeError(Exception):
    """Base class for all package errors."""


class InputError(WitnessForgeError):
    """Malformed input: unparseable files, unusable argument values."""


class DomainError(WitnessForgeError):
    """Structurally valid input that violates a mathematical precondition."""


class ConvergenceError(WitnessForgeError):
    """A numerical routine failed to converge."""


class ParseError(InputError):
    """A matrix file or CLI argument could not be decoded."""


class NotHermitian(DomainError):
    """Matrix entries fail the Hermitian symmetry tolerance."""


class NoConvergence(ConvergenceError):
    """LAPACK's Hermitian eigensolver, called through `linalg._lapack`,
    raised LinAlgError: its iteration did not converge."""


class BadPartyIndex(DomainError):
    """A party index is outside 1..n or a party subset is empty."""


class DimensionMismatch(DomainError):
    """Operand dimensions are incompatible."""


class ParamOutOfRange(DomainError):
    """A scalar parameter is outside its admissible range."""


class COutOfInterval(DomainError):
    """The witness offset c is outside the witnessing interval."""


class SelectionOutOfRange(DomainError):
    """A purification selection refers to invalid eigenvalue or ancilla slots."""


class MaxEigenvalueNotSelected(DomainError):
    """A partial purification omits the top eigenvalue."""


class CPrimeOutOfInterval(DomainError):
    """A relaxed offset c' is outside [c, sum of selected eigenvalues)."""


class FormNotSupported(DomainError):
    """The witness form is not covered by the requested extension."""


class CountTooLarge(DomainError):
    """Enumeration was requested beyond the hard size cap."""


class UnnormalizedTail(DomainError):
    """A tail state must be normalized."""


class UnsupportedDims(DomainError):
    """The brute-force oracle does not cover this dimension pattern."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the process exit code used by the CLI."""
    if isinstance(exc, ConvergenceError):
        return 3
    if isinstance(exc, DomainError):
        return 2
    return 1

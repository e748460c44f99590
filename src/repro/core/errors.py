"""Exception hierarchy for the dRBAC core.

All library-raised exceptions derive from :class:`DRBACError` so callers can
catch one type at system boundaries. Subclasses distinguish the failure
domains the paper's model cares about: malformed certificates, signature
failures, invalid proofs, attribute-algebra violations, and policy
violations at publication time.
"""


class DRBACError(Exception):
    """Base class for all dRBAC errors."""


# What Python itself raises on a record of the wrong shape or types (a
# missing key, a list where a map belongs, an unknown enum value, a
# number too large for a float); each record decoder reports these as
# its own typed error.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


class ParseError(DRBACError):
    """A delegation string does not conform to the dRBAC syntax."""


class DelegationError(DRBACError):
    """A delegation is structurally invalid (bad subject/object/issuer)."""


class ProofError(DRBACError):
    """A proof failed validation.

    The message records which rule was violated (broken chain, missing or
    invalid support proof, expired delegation, revoked delegation,
    unauthorized attribute modulation, ...).
    """


class AttributeError_(DRBACError):
    """A valued-attribute operation violates the monotone algebra.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class SignatureInvalidError(ProofError):
    """A certificate's cryptographic signature failed verification."""


class ExpiredError(ProofError):
    """A delegation in a proof is past its expiration date."""


class RevokedError(ProofError):
    """A delegation in a proof has been revoked by its issuer."""


class PublicationError(DRBACError):
    """A wallet refused to accept a published delegation.

    Raised e.g. when a third-party delegation arrives without its support
    proof, or when a signature does not verify (paper, Section 4.1).
    """


class DiscoveryError(DRBACError):
    """Distributed credential discovery failed (unreachable home wallet,
    malformed discovery tag, unauthorized wallet host)."""


class AuthorizationDenied(DRBACError):
    """No proof authorizing the requested trust relationship exists."""

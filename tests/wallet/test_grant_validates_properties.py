"""A wallet grants only what it validates.

Publication (Section 4.1) and validation apply one rule set: the link
check and support lookup of :mod:`repro.core.proof`. Hypothesis draws
small credential sets over three domains -- valued attributes under the
three Table 2 operators, some outside the object's namespace with the
attribute-assignment supports they need, third-party delegations with
and without supports, expiry dates -- and publishes all of them into
one wallet (refusals are allowed), interleaved with revocations and
clock advances. After every step, each proof the wallet's query forms
return (``query_direct``, ``query_subject``, ``query_object``,
``prove``) must pass the same wallet's ``validate``, under the
query's constraints -- whether the proof cache answers or, with the
cache cleared before every query, the graph search does.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PublicationError, Role, SimClock
from repro.core.attributes import AttributeRef, Constraint, Modifier, Operator
from repro.core.delegation import issue, revoke
from repro.core.identity import create_principal
from repro.core.proof import Proof
from repro.wallet.wallet import Wallet

# Key generation dominates example cost: one immutable pool, shared.
DOMAINS = 3
OWNERS = [create_principal(f"N{k}") for k in range(DOMAINS)]
USER = create_principal("user")
# Issues third-party delegations into the domains' namespaces.
BROKER = create_principal("broker")
ROLES = [Role(owner.entity, name) for owner in OWNERS
         for name in ("r0", "r1")]
PRINCIPALS = {p.entity: p for p in [*OWNERS, USER, BROKER]}

# One attribute per Table 2 operator in each domain, with the values a
# modifier on it may take; every base allocation is 100.
OPERATORS = {"BW": (Operator.MIN, (40.0, 80.0)),
             "storage": (Operator.SUBTRACT, (5.0, 30.0)),
             "hours": (Operator.MULTIPLY, (0.5, 1.0))}
ATTRIBUTES = [AttributeRef(owner.entity, name)
              for owner in OWNERS for name in OPERATORS]
BASES = {attribute: 100.0 for attribute in ATTRIBUTES}


@st.composite
def credentials(draw):
    """One delegation plus the supports its issuer offers with it."""
    subject = draw(st.sampled_from([USER.entity] * 3 + ROLES))
    obj = draw(st.sampled_from([role for role in ROLES if role != subject]))
    issuer = BROKER if draw(st.booleans()) else PRINCIPALS[obj.entity]
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2,
                               unique=True))
    modifiers = []
    for attribute in attributes:
        operator, values = OPERATORS[attribute.name]
        modifiers.append(Modifier(attribute, operator,
                                  draw(st.sampled_from(values))))
    delegation = issue(issuer, subject, obj, modifiers=modifiers,
                       expiry=draw(st.sampled_from([None, None, 30.0,
                                                    90.0])))
    supports = ()
    if draw(st.booleans()):
        # Each required role granted to the issuer by its owner: the
        # support is genuine; only the delegation may break a rule.
        supports = tuple(
            Proof.single(issue(PRINCIPALS[role.entity], issuer.entity,
                               role))
            for role in delegation.required_supports())
    return delegation, supports


# A step after a publication: nothing, revoke the k-th credential (or a
# support of it) by its issuer, or advance the clock.
steps = st.one_of(
    st.none(),
    st.tuples(st.just("revoke"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("advance"), st.sampled_from([20.0, 50.0])))


def _revoke(wallet, delegation):
    """Revoke ``delegation`` here, unless the wallet refused it and holds
    no copy of it either: such a revocation is refused too."""
    if wallet.store.find_delegation(delegation.id) is None:
        return
    principal = PRINCIPALS[delegation.issuer]
    wallet.publish_revocation(
        revoke(principal, delegation, revoked_at=wallet.clock.now()))


def _assert_grants_validate(wallet, constraints, searched):
    """``searched``: clear the proof cache before every query, so each
    answer comes from a graph search."""
    def cold():
        if searched:
            wallet.proof_cache.clear()
        return wallet

    proofs = [cold().query_direct(USER.entity, role, constraints)
              for role in ROLES]
    proofs += cold().query_subject(USER.entity, constraints)
    for role in ROLES:
        proofs += cold().query_object(role, constraints)
    proofs += [cold().prove(USER.entity, role, constraints)
               for role in ROLES]
    for proof in proofs:
        if proof is not None:
            wallet.validate(proof, constraints=constraints)


# The example budget is the loaded profile's (tests/conftest.py): 10 in
# tier-1, 200 under ``--hypothesis-profile=long``.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(credentials(), steps), min_size=1, max_size=8),
       st.lists(st.builds(Constraint, st.sampled_from(ATTRIBUTES),
                          st.sampled_from([10.0, 50.0])), max_size=1),
       st.booleans())
def test_every_grant_passes_the_wallets_validator(script, constraints,
                                                  searched):
    wallet = Wallet(owner=OWNERS[0], clock=SimClock())
    for attribute, value in BASES.items():
        wallet.set_base_allocation(attribute, value)
    published = []
    for (delegation, supports), step in script:
        try:
            wallet.publish(delegation, supports)
        except PublicationError:
            pass
        published.append((delegation, supports))
        if step is not None and step[0] == "revoke":
            victim, victim_supports = published[step[1] % len(published)]
            if step[2] and victim_supports:
                victim = victim_supports[0].chain[0]
            _revoke(wallet, victim)
        elif step is not None:
            wallet.clock.advance(step[1])
        _assert_grants_validate(wallet, tuple(constraints), searched)

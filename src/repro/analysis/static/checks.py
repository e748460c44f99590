"""The built-in static-analysis rules.

Each rule inspects the :class:`AnalysisContext` -- never running a
proof search -- and yields findings. Rule ids, severities, and fix
hints are catalogued in ``docs/LINT_RULES.md`` with minimal triggering
delegation sets in the paper's concrete syntax.

Ordering: rules are registered roughly by severity (structural ERRORs
first), and the analyzer preserves registration order, so reports are
deterministic.
"""

import math
from typing import Dict, Iterator, List, Tuple

from repro.core.attributes import AttributeRef, Operator
from repro.core.delegation import Delegation
from repro.core.identity import Entity
from repro.analysis.static.context import AnalysisContext
from repro.analysis.static.findings import Finding, Severity
from repro.analysis.static.rules import RULES, rule


@rule(
    "amplification-cycle", Severity.ERROR,
    "Delegation cycle with a non-neutral *= attribute product",
    "Break the cycle, or drop the *= modifiers from its edges so "
    "repeated traversal cannot re-modulate the grant.",
)
def check_amplification_cycle(ctx: AnalysisContext) -> Iterator[Finding]:
    """Tarjan SCC + per-SCC log-weight test over ``*=`` factors.

    A cycle whose composed multiply product is exactly 1.0 is neutral:
    going around it changes nothing, so it is noise, not a defect. Any
    other product makes the effective grant depend on how many times a
    chain winds through the loop -- the amplification hazard Table 2's
    monotonicity restriction exists to prevent. We sum logs rather than
    multiply factors so long cycles cannot underflow to a false 0.0.
    """
    this = RULES["amplification-cycle"]
    for component, edges in ctx.cyclic_sccs():
        log_sum = 0.0
        modulated = False
        for edge in edges:
            for modifier in edge.modifiers.to_modifiers():
                if modifier.operator is Operator.MULTIPLY \
                        and modifier.value != 1.0:
                    modulated = True
                    log_sum += ctx.log_weight(modifier.value)
        if not modulated:
            continue
        product = math.exp(log_sum)
        yield this.finding(
            sorted(edge.id for edge in edges),
            f"delegation cycle over {len(component)} roles composes a "
            f"non-neutral *= product {product:.4g} (log-weight "
            f"{log_sum:+.4g}); each traversal re-modulates the grant, "
            f"so the attribute level depends on search path length",
        )


@rule(
    "dangling-support", Severity.ERROR,
    "Third-party delegation whose support chain cannot be assembled",
    "Grant the issuer the object's right of assignment (or the "
    "attribute-assignment right), or attach a currently-valid stored "
    "support proof.",
)
def check_dangling_support(ctx: AnalysisContext) -> Iterator[Finding]:
    """Answered statically by walking the live graph from each issuer.

    For each live delegation, every role in ``required_supports()``
    must either be live-reachable from the issuer's entity node or be
    covered by a stored support proof whose links are all still live.
    If neither holds, no support proof can ever be assembled and every
    proof through this delegation is stillborn.
    """
    this = RULES["dangling-support"]
    for delegation in ctx.live_delegations:
        required = delegation.required_supports()
        if not required:
            continue
        missing = [role for role in required
                   if not ctx.support_witness(delegation, role)]
        if missing:
            roles = ", ".join(str(role) for role in missing)
            yield this.finding(
                [delegation.id],
                f"{delegation} is third-party but "
                f"{delegation.issuer.display_name} cannot assemble a "
                f"support proof for: {roles}",
            )


@rule(
    "attribute-misuse", Severity.ERROR,
    "-= accumulation drives an attribute below zero",
    "Lower the subtracted amounts along the chain, raise the base "
    "allocation, or break the subtracting cycle.",
)
def check_attribute_misuse(ctx: AnalysisContext) -> Iterator[Finding]:
    """Condensation-DAG accumulation of worst-case ``-=`` totals.

    For each attribute with a known base allocation, walk the live
    graph's SCC condensation in topological order accumulating the
    maximum subtraction any chain can reach. An edge whose subtraction
    pushes the running total past the base heads a chain granting a
    negative sensitivity; a subtracting edge inside a cycle can be
    traversed repeatedly, so its total is unbounded.
    """
    this = RULES["attribute-misuse"]
    subtract_edges: Dict[AttributeRef, List[Delegation]] = {}
    for delegation in ctx.live_delegations:
        for modifier in delegation.modifiers.to_modifiers():
            if modifier.operator is Operator.SUBTRACT \
                    and modifier.value > 0 \
                    and modifier.attribute in ctx.bases:
                subtract_edges.setdefault(modifier.attribute,
                                          []).append(delegation)
    for attribute in sorted(subtract_edges,
                            key=lambda a: (a.qualified_name, a.entity.id)):
        base = ctx.bases[attribute]
        components = ctx.sccs
        membership = ctx.scc_index
        acc = [0.0] * len(components)
        unbounded = [False] * len(components)
        flagged: Dict[str, Tuple[Delegation, float, bool]] = {}

        def subtraction(edge: Delegation) -> float:
            if edge.modifiers.operator_of(attribute) is Operator.SUBTRACT:
                return edge.modifiers.value_of(attribute) or 0.0
            return 0.0

        for position, component in enumerate(components):
            members = set(component)
            internal_total = 0.0
            for node in sorted(members):
                for edge in ctx.live_graph.out_edges_by_node(node):
                    if edge.object_node not in members:
                        continue
                    amount = subtraction(edge)
                    if amount > 0:
                        unbounded[position] = True
                        internal_total += amount
                        flagged.setdefault(
                            edge.id, (edge, math.inf, True))
            acc[position] += internal_total
            for node in sorted(members):
                for edge in ctx.live_graph.out_edges_by_node(node):
                    target = membership[edge.object_node]
                    if target == position:
                        continue
                    amount = subtraction(edge)
                    total = acc[position] + amount
                    if unbounded[position]:
                        unbounded[target] = True
                    acc[target] = max(acc[target], total)
                    if amount > 0 and (unbounded[position]
                                       or total > base):
                        flagged.setdefault(
                            edge.id,
                            (edge, total, unbounded[position]))
        for edge_id in sorted(flagged):
            edge, total, looped = flagged[edge_id]
            if looped:
                detail = ("sits on a cycle, so repeated traversal "
                          "subtracts without bound")
            else:
                detail = (f"accumulates a worst-case subtraction of "
                          f"{total:g} against a base of {base:g} "
                          f"(grant {base - total:g})")
            yield this.finding(
                [edge_id],
                f"{edge} drives {attribute} below zero: {detail}",
            )


@rule(
    "namespace-squat", Severity.ERROR,
    "Delegation modulates an attribute outside its object's namespace",
    "Move the modifier into a delegation whose object role lives in "
    "the attribute's namespace, or drop it.",
)
def check_namespace_squat(ctx: AnalysisContext) -> Iterator[Finding]:
    """Strict attribute-namespace discipline, checked at rest.

    The validator's link check (:func:`repro.core.proof.check_link`)
    rejects any delegation whose modifier names an attribute outside the
    object role's namespace: such modifiers squat on a namespace the
    delegation does not speak for. They are constructible and signable;
    a wallet's publication refuses them, but a store restored from bytes
    or a graph assembled without publication can still hold them,
    silently making every proof through them invalid -- exactly what a
    static pass should surface.
    """
    this = RULES["namespace-squat"]
    for delegation in ctx.live_delegations:
        foreign = sorted(
            str(modifier.attribute)
            for modifier in delegation.modifiers.to_modifiers()
            if modifier.attribute.entity != delegation.obj.entity
        )
        if foreign:
            yield this.finding(
                [delegation.id],
                f"{delegation} modulates {', '.join(foreign)} outside "
                f"object namespace "
                f"{delegation.obj.entity.display_name}; strict "
                f"validation will reject every proof through it",
            )


@rule(
    "dead-credential", Severity.WARN,
    "Credential on no principal-reachable path",
    "Grant some principal the subject role (directly or transitively), "
    "or revoke the unusable credential.",
)
def check_dead_credential(ctx: AnalysisContext) -> Iterator[Finding]:
    """Every proof chain starts at an entity subject.

    A live delegation whose subject role is outside the set of nodes
    reachable from *any* entity node (over live edges) can never appear
    in a proof: nobody holds, or can come to hold, the subject role.
    """
    this = RULES["dead-credential"]
    reachable = ctx.entity_reachable
    for delegation in ctx.live_delegations:
        if isinstance(delegation.subject, Entity):
            continue
        if delegation.subject_node not in reachable:
            yield this.finding(
                [delegation.id],
                f"{delegation} can never be exercised: no principal "
                f"can reach subject role {delegation.subject}",
            )


@rule(
    "shadowed-credential", Severity.WARN,
    "Credential subsumed by a strictly-or-equally stronger sibling",
    "Revoke the weaker duplicate, or differentiate the two "
    "delegations' attributes or validity windows.",
)
def check_shadowed_credential(ctx: AnalysisContext) -> Iterator[Finding]:
    """Same edge, same issuer, dominated attributes and validity.

    Delegation B shadows A when both connect the same subject/object
    under the same issuer and B is at least as generous on every
    attribute (under each operator's own ordering, with the operator
    identity standing in for absent modifiers), lives at least as long,
    and allows at least as much re-delegation depth. Differing
    operators on the same attribute make the pair incomparable -- no
    finding. Mutual domination (identical effect) flags only the
    lexicographically larger id, so exactly one duplicate is reported.
    """
    this = RULES["shadowed-credential"]
    groups: Dict[tuple, List[Delegation]] = {}
    for delegation in ctx.live_delegations:
        key = (delegation.subject_node, delegation.object_node,
               delegation.issuer.id)
        groups.setdefault(key, []).append(delegation)
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda d: d.id)
        if len(members) < 2:
            continue
        for shadowed in members:
            dominator = next(
                (other for other in members
                 if other.id != shadowed.id
                 and _dominates(other, shadowed)),
                None,
            )
            if dominator is None:
                continue
            if _dominates(shadowed, dominator) \
                    and shadowed.id < dominator.id:
                continue  # identical effect: flag only one of the pair
            yield this.finding(
                [shadowed.id],
                f"{shadowed} is shadowed by {dominator.short_id}: the "
                f"sibling grants equal-or-stronger attributes over an "
                f"equal-or-longer validity window",
            )


def _dominates(stronger: Delegation, weaker: Delegation) -> bool:
    """True iff ``stronger`` grants at least everything ``weaker`` does."""
    attributes = set(stronger.modifiers.attributes()) \
        | set(weaker.modifiers.attributes())
    for attribute in attributes:
        op_s = stronger.modifiers.operator_of(attribute)
        op_w = weaker.modifiers.operator_of(attribute)
        op = op_s or op_w
        if op_s is not None and op_w is not None and op_s is not op_w:
            return False  # incomparable orderings
        value_s = stronger.modifiers.value_of(attribute)
        value_w = weaker.modifiers.value_of(attribute)
        if value_s is None:
            value_s = op.identity
        if value_w is None:
            value_w = op.identity
        if op is Operator.SUBTRACT:
            if value_s > value_w:
                return False
        elif value_s < value_w:  # MULTIPLY and MIN: bigger is stronger
            return False
    expiry_s = math.inf if stronger.expiry is None else stronger.expiry
    expiry_w = math.inf if weaker.expiry is None else weaker.expiry
    if expiry_s < expiry_w:
        return False
    depth_s = math.inf if stronger.depth_limit is None \
        else stronger.depth_limit
    depth_w = math.inf if weaker.depth_limit is None \
        else weaker.depth_limit
    return depth_s >= depth_w


@rule(
    "validity-inversion", Severity.WARN,
    "Validity window already closed, inverted, or not yet open",
    "Renew or revoke the expired credential; fix the issuance "
    "timestamp on the future-dated one.",
)
def check_validity_inversion(ctx: AnalysisContext) -> Iterator[Finding]:
    """Wall-clock hygiene over every held certificate.

    ``expiry <= issued_at`` is an ERROR (the certificate was dead on
    arrival; the constructor refuses to mint these, so one in a wallet
    means tampered or corrupted state). Expired-but-still-held and
    future-dated (``issued_at`` after the analysis instant) are WARNs:
    both are valid states the wallet should be sweeping or questioning.
    """
    this = RULES["validity-inversion"]
    for delegation in ctx.graph:
        if ctx.is_revoked(delegation.id):
            continue  # revocation already retired it
        if delegation.expiry is not None \
                and delegation.issued_at is not None \
                and delegation.expiry <= delegation.issued_at:
            yield this.finding(
                [delegation.id],
                f"{delegation} was expired on issue (expiry "
                f"{delegation.expiry:g} <= issued_at "
                f"{delegation.issued_at:g})",
                severity=Severity.ERROR,
            )
        elif delegation.is_expired(ctx.at):
            yield this.finding(
                [delegation.id],
                f"{delegation} expired at {delegation.expiry:g} but is "
                f"still held at {ctx.at:g}; sweep or renew it",
            )
        elif delegation.issued_at is not None \
                and delegation.issued_at > ctx.at:
            yield this.finding(
                [delegation.id],
                f"{delegation} is future-dated (issued_at "
                f"{delegation.issued_at:g} is after the analysis "
                f"instant {ctx.at:g})",
            )


@rule(
    "revocation-blind-spot", Severity.WARN,
    "Long-lived delegation whose tags disable monitoring",
    "Set a positive TTL on at least one discovery tag (so holders "
    "subscribe to the home wallet), or bound the delegation's expiry.",
)
def check_revocation_blind_spot(ctx: AnalysisContext) -> Iterator[Finding]:
    """A zero TTL means "does not require monitoring" (Section 4.2.1).

    That is fine for short-lived credentials -- expiry bounds the
    damage -- but a delegation that never expires (or outlives the
    threshold) *and* opts out of monitoring on every tag leaves
    revocations with no propagation channel to its holders.
    """
    this = RULES["revocation-blind-spot"]
    for delegation in ctx.live_delegations:
        tags = [tag for tag in (delegation.subject_tag,
                                delegation.object_tag,
                                delegation.issuer_tag)
                if tag is not None]
        if not tags:
            continue
        if any(tag.requires_monitoring for tag in tags):
            continue
        if not ctx.is_long_lived(delegation):
            continue
        lifetime = "no expiry" if delegation.expiry is None else \
            f"expiry {delegation.expiry:g}"
        yield this.finding(
            [delegation.id],
            f"{delegation} is long-lived ({lifetime}) but every "
            f"discovery tag carries TTL 0, so holders never subscribe "
            f"and revocations cannot reach them",
        )


@rule(
    "self-delegation", Severity.WARN,
    "Issuer grants itself a role it already controls",
    "Delete the no-op credential; the issuer holds its whole "
    "namespace by definition.",
)
def check_self_delegation(ctx: AnalysisContext) -> Iterator[Finding]:
    """``[E -> E.r] E`` proves nothing E could not already prove.

    An entity controls every role in its own namespace, so
    self-issuing one of them to itself only bloats the graph and the
    search frontier.
    """
    this = RULES["self-delegation"]
    for delegation in ctx.live_delegations:
        if isinstance(delegation.subject, Entity) \
                and delegation.subject == delegation.issuer \
                and delegation.obj.entity == delegation.issuer:
            yield this.finding(
                [delegation.id],
                f"{delegation} is a no-op: "
                f"{delegation.issuer.display_name} self-certifies a "
                f"role in its own namespace to itself",
            )


@rule(
    "orphan-discovery-tag", Severity.INFO,
    "Discovery tag authorizes its home via an undefined role",
    "Publish a delegation defining the authorizing role, or fix the "
    "tag's auth-role name.",
)
def check_orphan_discovery_tag(ctx: AnalysisContext) -> Iterator[Finding]:
    """The tag's auth role should exist somewhere in the policy.

    A tag names the dRBAC role that authorizes its home wallet
    (Section 4.2.1). When no delegation in the analyzed set mentions
    that role, discovery can never validate the home -- usually a typo
    or a stale tag. INFO severity because the defining delegation may
    legitimately live in another wallet.
    """
    this = RULES["orphan-discovery-tag"]
    known = ctx.role_names
    for delegation in ctx.live_delegations:
        for slot, tag in (("subject", delegation.subject_tag),
                          ("object", delegation.object_tag),
                          ("issuer", delegation.issuer_tag)):
            if tag is None or not tag.auth_role_name:
                continue
            if tag.auth_role_name not in known:
                yield this.finding(
                    [delegation.id],
                    f"{delegation} carries a {slot} tag {tag} whose "
                    f"authorizing role {tag.auth_role_name!r} is not "
                    f"defined by any delegation in this set",
                )

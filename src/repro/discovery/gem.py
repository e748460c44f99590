"""Tabled goal evaluation: the origin's evaluation as a step function,
the home's answer as a value, and the shared counters.

Discovery evaluates a query the way Trivellato, Zannone & Etalle's GEM
does (see PAPERS.md), with one difference: GEM tables goals at every
evaluator because its evaluators spawn subgoals, while here the
*origin* derives every goal (Section 4.2.1: the returned proofs are the
roots for further searches). So the origin alone tables them -- its
issued-set sends each goal to its home at most once per search, and a
derived goal naming an already-issued ``(home, direction, node)`` is a
detected cycle, recorded and never re-evaluated -- and a home keeps no
per-search state: it answers each ``gem_eval`` with its local closure
(:func:`answer_push`), pushed straight back to the origin. Mutually
recursive cross-home delegations complete without centralizing the
graph, with a message count flat in the number of in-home revisits.

:class:`Origin` is one search's evaluation at its origin. It reads its
host only through a :class:`View` and hands back values: the next goal
to send (:meth:`Origin.next_goal`), an accepted answer or the ids a
dropped push leaves to release (:meth:`Origin.accept`), and the links
to verify and the answers to admit (:meth:`Origin.commit`). It sends
nothing, waits for nothing and reads no clock, so whoever drives it
decides when answers arrive:
:class:`~repro.discovery.engine.DiscoveryEngine` on the network, or a
test by hand.
"""

import itertools
from collections import deque
from typing import (
    Callable,
    Collection,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.delegation import Delegation
from repro.core.errors import DiscoveryError, DRBACError
from repro.core.proof import (
    Proof,
    admit_closure,
    closure_delegations,
    is_admissible,
    is_live,
)
from repro.core.roles import Role, Subject, subject_key
from repro.core.tags import DiscoveryTag
from repro.discovery import wire

# A goal, locally keyed: (direction, subject_key(node)). Direction is
# "fwd" (everything reachable from node) or "rev" (everything that
# reaches node); the node key is the engine's canonical node encoding.
GoalKey = Tuple[str, tuple]

# The origin stops chasing continuation chains past this depth: a
# belt-and-braces bound on pathological tag graphs on top of the
# issued-set dedup (which already guarantees termination).
MAX_DEPTH = 64

# The ``drbac_gem_*`` tallies one host keeps, as one
# :class:`~repro.obs.CounterSet` on its
# :class:`~repro.discovery.resolver.WalletServer` (``gem_stats``)
# serving both protocol sides: the origin side counts roots, evals
# issued, answers received or dropped, loops detected and refs, the
# server's ``gem_eval`` handler the home side (evals served, answers
# pushed). ``DiscoveryEngine.gem_info()`` surfaces its ``to_dict()``
# (pinned by ``tests/obs/test_contracts.py``).
GEM_COUNTER_NAMES = (
    "roots", "evals_issued", "answers_received",
    "answers_dropped", "answer_records", "evals_served",
    "loops_detected", "answers_pushed", "refs_from_holdings",
    "refs_refetched", "refs_unresolved")


class View(NamedTuple):
    """What an origin reads of its host, all of it read-only."""

    address: str
    # The instant the search runs at.
    now: float
    # The wallet's copy of a credential by id, or None.
    held: Callable[[str], Optional[Delegation]]
    # Every credential the wallet holds.
    delegations: Callable[[], Iterable[Delegation]]
    # The wallet's links out of a node key.
    out_edges: Callable[[tuple], Iterable[Delegation]]
    # The objects the wallet's proofs from a node reach.
    heads: Callable[[Subject], Iterable[Subject]]
    is_revoked: Callable[[str], bool]
    # The Section 4.2.1 verdict: may ``home``, named by ``tag``, be asked?
    authorized: Callable[[str, DiscoveryTag], bool]


class Goal(NamedTuple):
    """A goal queued for its home."""

    home: str
    key: GoalKey
    node: Subject
    depth: int


class Answer(NamedTuple):
    """One accepted ``gem_answers`` push. ``table`` is its decoded
    table of principals, roles and tags. ``missing`` are the refs
    neither the search nor the wallet resolves, to be fetched
    (:meth:`Origin.receive`) before :meth:`Origin.stage` decodes the
    payloads into ``proofs``; ``subs`` the ids the home now holds for
    this origin because of the push."""

    home: str
    goal: GoalKey
    depth: int
    payloads: Sequence[Mapping]
    table: wire.Entries
    memo: Dict[int, Delegation]
    missing: List[str]
    subs: List[str]
    proofs: List[Proof]


class Batch(NamedTuple):
    """What one commit admits: the presented credentials and the staged
    answers, the links of both the wallet does not hold (one signature
    batch), and the ids staged since the last commit."""

    presented: List[Tuple[Delegation, Tuple[Proof, ...]]]
    answers: List[Answer]
    links: List[Delegation]
    staged: Set[str]


class Origin:
    """One search's evaluation root: the coalition-wide goal bookkeeping
    every home's answers are checked against.

    An answer is *staged*, then *committed*. :meth:`stage` checks
    everything but signatures and routes the next goals -- a staged
    credential's tag is a hint (Section 4.2) until the commit checks its
    signature; the host-authority check and the goal budget still
    apply. :meth:`commit` hands the driver everything staged at once,
    and :meth:`committed` takes back what the wallet admitted of it.
    ``stats`` is the run's
    :class:`~repro.discovery.engine.DiscoveryStats`, ``counters`` the
    host's ``drbac_gem_*`` counters."""

    def __init__(self, view: View, root: str, subject: Subject, obj: Role,
                 constraints: tuple, bases: Optional[Mapping],
                 hints: Mapping[tuple, DiscoveryTag], budget: int,
                 stats, counters) -> None:
        self.view = view
        self.root = root
        self.subject, self.obj = subject, obj
        self.constraints, self.bases = constraints, bases
        self.hints = hints
        self.budget = budget
        self.stats = stats
        self.counters = counters
        self._retag()
        # Goals waiting to be sent.
        self.queue: Deque[Goal] = deque()
        # Every (home, goal) ever queued -- a derived goal already in
        # here is a coalition-wide loop, recorded but never re-evaluated.
        self.issued: Set[Tuple[str, GoalKey]] = set()
        # Goals sent and not yet answered, with their depth. An answer
        # is accepted only for a key in here, from the home it names,
        # exactly once.
        self.pending: Dict[Tuple[str, GoalKey], int] = {}
        # Goals an absorbed closure already answers (see ``_follow``).
        self.covered: Set[Tuple[str, GoalKey]] = set()
        # Certificates received in full this search (resolves the refs a
        # home sends for anything it already shipped).
        self.received: Dict[str, Delegation] = {}
        # Answers and presented credentials staged since the last
        # commit, in arrival order, and the links they stage that the
        # wallet does not hold: by id, and by subject node key (the
        # reachability gate's edges).
        self.staged: List[Answer] = []
        self.presented: List[Tuple[Delegation, Tuple[Proof, ...]]] = []
        self.staged_ids: Set[str] = set()
        self.staged_edges: Dict[tuple, List[Delegation]] = {}
        # The checked closures followed so far: (home, direction, proofs,
        # depth), committed answers' and cached ones'.
        self.followed: List[tuple] = []

    # -- goals --------------------------------------------------------------

    def start(self, direction: str) -> None:
        """Queue a search's first goals. Forward: from the subject and
        every node it reaches over the wallet's links and the presented
        ones. In reverse (the bidirectional analog): from the object,
        when its tag announces an object-flagged home."""
        if direction == "rev":
            self._enqueue(self.obj, "rev", 0)
            return
        entered = [self.subject]    # grows while it is walked
        seen: Set[tuple] = set()
        for node in entered:
            for head in [node, *self.view.heads(node)]:
                key = subject_key(head)
                if key not in seen:
                    seen.add(key)
                    self._enqueue(head, "fwd", 0)
                    entered.extend(delegation.obj for delegation
                                   in self.staged_edges.get(key, ()))

    def next_goal(self) -> Optional[Goal]:
        """The next goal to send, in queue order, or None once the queue
        drains or the budget is spent. A goal an absorbed closure
        covers is skipped."""
        while self.queue and self.budget > 0:
            goal = self.queue.popleft()
            if (goal.home, goal.key) not in self.covered:
                return goal
        return None

    def send(self, goal: Goal) -> None:
        """``goal`` goes out: it spends budget, and one answer from its
        home is awaited."""
        self.budget -= 1
        self.stats.rounds += 1
        if goal.key[0] == "fwd":
            self.stats.remote_subject_queries += 1
        else:
            self.stats.remote_object_queries += 1
        self.stats.wallets_contacted.add(goal.home)
        self.counters.c_evals_issued.inc()
        self.pending[(goal.home, goal.key)] = goal.depth

    def lost(self, goal: Goal) -> None:
        """``goal`` never reached its home: no answer is awaited."""
        del self.pending[(goal.home, goal.key)]

    def served(self, goal: Goal, proofs: Sequence[Proof]) -> None:
        """``goal`` is answered by a checked closure the wallet holds
        (the driver's result cache): follow it as a committed answer."""
        direction = goal.key[0]
        self._follow(goal.home, direction, proofs, goal.depth)
        self.followed.append((goal.home, direction, proofs, goal.depth))

    def _enqueue(self, node: Subject, direction: str, depth: int) -> bool:
        """Queue the goal ``node`` names, if its tag directs it to a home
        this origin may ask: not without a tag, a flag that stores
        nothing there, at this host itself, or at a host that failed the
        Section 4.2.1 authority check. True when that goal was already
        issued for this search -- a loop."""
        forward = direction == "fwd"
        node_key = subject_key(node)
        tag = self.tags.get(node_key)
        if tag is None or not (forward or isinstance(node, Role)) \
                or not (tag.subject_flag if forward
                        else tag.object_flag).stores_at_home \
                or tag.home == self.view.address \
                or not self.view.authorized(tag.home, tag):
            return False
        key = (tag.home, (direction, node_key))
        if key in self.issued:
            return True
        if depth <= MAX_DEPTH:
            self.issued.add(key)
            self.queue.append(Goal(tag.home, key[1], node, depth))
        return False

    def _follow(self, home: str, direction: str, proofs: Iterable[Proof],
                depth: int, count_loops: bool = True) -> None:
        """Queue the goals a home's closure continues into: each proof's
        head (its object going forward, its subject in reverse), homed
        by the tags of the wallet's credentials and of staged ones.

        A head stored at the answering home itself continues nowhere:
        the closure is transitive, so it already holds every link that
        home has from there, and a goal still queued for that head is
        covered too. Not so under constraints, nor past a proof that
        modulates an attribute or carries a depth limit: a chain from
        the head may pass where its extension of that proof does not (a
        constraint met only without the proof's modifiers, an attribute
        bound to a second operator, a link past the limit), so then the
        head is asked. ``count_loops`` is False when
        closures already followed are followed again (see ``_reroute``):
        a head issued then is no coalition-wide loop."""
        covers = not self.constraints
        for proof in proofs:
            head = proof.obj if direction == "fwd" else proof.subject
            tag = self.tags.get(subject_key(head))
            if covers and tag is not None and tag.home == home \
                    and not proof.modifiers and proof.depth_budget is None:
                self.covered.add((home, (direction, subject_key(head))))
                continue
            if self._enqueue(head, direction, depth + 1) and count_loops:
                self.counters.c_loops_detected.inc()

    # -- answers ------------------------------------------------------------

    def accept(self, src: str, params: Mapping, subs: List[str]
               ) -> Tuple[Optional[Answer], Sequence[str]]:
        """A ``gem_answers`` push from ``src``, its ``subs`` decoded.
        Accepted only from the home a still-unanswered goal was sent to,
        once. A dropped push -- another home's goal, a replay, a
        malformed goal -- is not decoded and comes back as None with the
        ids the driver releases: none for a second push for a goal
        ``src`` was asked (they are the accepted push's), all of
        ``subs`` for any other.

        The push's table is decoded once, here, and every delegation it
        ships in full is read against it. A table that is not one
        (:func:`~repro.discovery.wire.table_from_wire`), or that holds
        an entry nothing read here names, drops the whole push, and its
        goal stays unanswered; a record that does not decode is dropped
        alone, by :meth:`stage`."""
        try:
            direction, node = wire.gem_goal_from_wire(params["goal"])
            goal: GoalKey = (direction, subject_key(node))
        except (DRBACError, KeyError, TypeError):
            return None, subs    # a goal nobody could have asked
        if (src, goal) not in self.pending:
            return None, () if (src, goal) in self.issued else subs
        payloads = params.get("answers")
        try:
            table = wire.table_from_wire(params.get("table"))
        except DiscoveryError:
            return None, subs
        if not isinstance(payloads, list):
            return None, subs
        memo: Dict[int, Delegation] = {}
        refs: Set[str] = set()
        shipped: List[Delegation] = []
        for payload in payloads:
            found: Set[str] = set()
            try:
                shipped += list(wire.proof_full_delegations(
                    payload, table, memo=memo, refs=found))
            except DRBACError:
                continue
            refs |= found
        if len(table.named) < len(table):
            return None, subs
        depth = self.pending.pop((src, goal))
        for delegation in shipped:
            self.received[delegation.id] = delegation
        # A ref to nothing shipped this search is the home saying "you
        # hold this". Believe it only as far as the wallet agrees: what
        # is gone (a lapsed lease whose unsubscribe was lost, a
        # restart) is ``missing``.
        held = refs.difference(self.received)
        missing = sorted(ref for ref in held if self.view.held(ref) is None)
        if len(held) > len(missing):
            self.counters.c_refs_from_holdings.inc(len(held) - len(missing))
        return Answer(src, goal, depth, payloads, table, memo, missing,
                      subs, []), ()

    def receive(self, delegation: Delegation) -> None:
        """A missing ref, fetched by the driver under its own id."""
        self.received[delegation.id] = delegation

    def stage(self, answer: Answer) -> bool:
        """Decode an accepted answer and stage it: check each proof's
        links for everything but their signatures (``is_admissible`` on
        a link the wallet lacks, ``is_live`` on one it holds), follow
        the heads of the proofs that pass -- routed by their tags, a hint
        until the commit checks the signatures -- and keep the answer
        for the commit. True when it staged a link neither the wallet
        nor this search held."""
        self._decode(answer)
        view = self.view
        before = len(self.staged_ids)

        def admit(delegation: Delegation, proof: Proof) -> bool:
            if delegation.id in self.staged_ids:
                return True
            if view.held(delegation.id) is not None:
                return is_live(delegation, view.now, view.is_revoked)
            if not is_admissible(delegation, proof.supports_for(delegation),
                                 view.now, view.is_revoked):
                return False
            self._stage_link(delegation)
            return True

        passed, _failed = admit_closure(answer.proofs, admit)
        self._harvest(closure_delegations(passed))
        self.staged.append(answer)
        self._follow(answer.home, answer.goal[0], passed, answer.depth)
        return len(self.staged_ids) > before

    def _decode(self, answer: Answer) -> None:
        """Materialize an answer's proofs, resolving refs against what
        this search received in full and then the wallet. A proof with
        a ref neither knows (or one that is malformed) is dropped, and
        so is every record grown from it, which leaves the answer
        incomplete."""
        received, held = self.received, self.view.held

        def resolve(delegation_id: str) -> Delegation:
            delegation = received.get(delegation_id) or held(delegation_id)
            if delegation is None:
                raise DiscoveryError(
                    f"unresolvable answer ref {delegation_id!r}")
            return delegation

        decoded: List[Optional[Proof]] = []
        for payload in answer.payloads:
            try:
                proof = wire.proof_from_wire_session(
                    payload, answer.table, resolve, memo=answer.memo,
                    earlier=decoded, forward=answer.goal[0] == "fwd")
            except DRBACError:
                proof = None    # unresolved, or not shaped like a proof
            decoded.append(proof)
        answer.proofs.extend(p for p in decoded if p is not None)
        self.counters.c_answer_records.inc(len(answer.proofs))

    def present(self, delegation: Delegation,
                supports: Tuple[Proof, ...]) -> bool:
        """Stage a presented credential the wallet lacks, for the first
        commit: its tags, and those of its support proofs, route goals
        as hints. False when it fails a check staging can run: the
        driver offers it to the wallet at once."""
        if self.view.held(delegation.id) is not None \
                or delegation.id in self.staged_ids:
            return True
        if not is_admissible(delegation, supports, self.view.now,
                             self.view.is_revoked):
            return False
        self.presented.append((delegation, supports))
        self._stage_link(delegation)
        self._harvest(itertools.chain(
            (delegation,), *(support.all_delegations() for support in supports)))
        return True

    def _stage_link(self, delegation: Delegation) -> None:
        self.staged_ids.add(delegation.id)
        self.staged_edges.setdefault(delegation.subject_node, []).append(
            delegation)

    def reaches(self) -> bool:
        """Does the subject reach the object over the wallet's links and
        the staged ones? Node keys only -- no attributes, supports or
        time -- so a proof needs it: the gate a commit waits for."""
        out_edges, staged = self.view.out_edges, self.staged_edges
        target = subject_key(self.obj)
        seen = {subject_key(self.subject)}
        stack = list(seen)
        while stack:
            node = stack.pop()
            for delegation in itertools.chain(out_edges(node),
                                              staged.get(node, ())):
                step = delegation.object_node
                if step == target:
                    return True
                if step not in seen:
                    seen.add(step)
                    stack.append(step)
        return False

    # -- commit -------------------------------------------------------------

    def commit(self) -> Batch:
        """Hand over everything staged, in arrival order, with every
        credential and support link of it the wallet does not hold."""
        batch = Batch(self.presented, self.staged, [], self.staged_ids)
        self.presented, self.staged, self.staged_ids = [], [], set()
        self.staged_edges = {}
        links = [link for credential, supports in batch.presented
                 for link in (credential, *closure_delegations(supports))]
        links += [link for answer in batch.answers
                  for link in closure_delegations(answer.proofs)]
        batch.links.extend(link for link in links
                           if self.view.held(link.id) is None)
        return batch

    def committed(self, batch: Batch,
                  admitted: Sequence[Tuple[List[Proof], Set[str]]]) -> None:
        """What the wallet admitted of ``batch``: per answer, the proofs
        whose every link it now holds live, and the ids it refused.
        Those closures are followed from now on. A staged link refused
        routed goals by tags its signature may not back: the search
        re-routes (``_reroute``)."""
        self.followed += [(answer.home, answer.goal[0], proofs, answer.depth)
                          for answer, (proofs, _rejected)
                          in zip(batch.answers, admitted)]
        if any(not batch.staged.isdisjoint(rejected)
               for _proofs, rejected in admitted):
            self._reroute()

    def _reroute(self) -> None:
        """Withdraw every staged tag -- the search's tags are the
        wallet's again -- and follow each checked closure anew, so a
        forged tag harvested first cannot keep a genuine one for the
        same node from routing its goal, nor mark that goal covered.
        Goals already sent stay sent."""
        self._retag()
        self.covered.clear()
        for home, direction, proofs, depth in self.followed:
            self._follow(home, direction, proofs, depth, count_loops=False)

    def _retag(self) -> None:
        """The hints, then the tags of every credential the wallet
        holds: what routes goals before any answer."""
        self.tags: Dict[tuple, DiscoveryTag] = dict(self.hints)
        self._harvest(self.view.delegations())

    def _harvest(self, delegations: Iterable[Delegation]) -> None:
        tags = self.tags
        for delegation in delegations:
            if delegation.subject_tag is not None:
                tags.setdefault(delegation.subject_node,
                                delegation.subject_tag)
            if delegation.object_tag is not None:
                tags.setdefault(delegation.object_node,
                                delegation.object_tag)


def answer_push(request: Mapping, proofs: List[Proof],
                held: Collection[str],
                stored: Callable[[str], Optional[Delegation]]
                ) -> Tuple[dict, List[str]]:
    """A home's ``gem_answers`` push for the ``gem_eval`` ``request``,
    and the ids it ships that the home stores: the validation
    subscriptions it establishes for the origin. The closure ships as a
    tree, session-encoded against ``held`` -- what the origin already
    holds a subscription for -- so a certificate crosses the wire only
    while the origin lacks it -- and the principals, roles and tags of
    what ships in full are named once, in the push's ``table``. The
    push doubles as the goal's completion signal, so it goes out even
    for an empty closure."""
    sent = set(held)
    table = wire.Table()
    answers = wire.proofs_to_wire_session(proofs, sent, table)
    subs = [delegation_id for delegation_id in sorted(sent.difference(held))
            if stored(delegation_id) is not None]
    return {"root": request["root"], "goal": request["goal"],
            "answers": answers, "table": table.entries,
            "subs": wire.ids_to_wire(subs)}, subs

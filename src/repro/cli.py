"""A command-line front end for a local dRBAC wallet workspace.

Gives the library the operational surface a downstream user expects from
an open-source release: create identities, issue delegations in the
paper's concrete syntax, query trust relationships, revoke, renew, and
inspect -- all against a wallet persisted in a workspace directory.

Usage::

    python -m repro.cli -w ws entity create BigISP
    python -m repro.cli -w ws entity create Maria
    python -m repro.cli -w ws entity create Mark
    python -m repro.cli -w ws issue "[Mark -> BigISP.memberServices] BigISP"
    python -m repro.cli -w ws issue "[BigISP.memberServices -> BigISP.member'] BigISP"
    python -m repro.cli -w ws issue "[Maria -> BigISP.member] Mark"
    python -m repro.cli -w ws query direct Maria BigISP.member
    python -m repro.cli -w ws revoke <delegation-id>
    python -m repro.cli -w ws show

The workspace stores private keys in plaintext (it is a demo/ops tool for
the simulated system, not a production secret store); the wallet state
itself rides the same canonical encoding used on the wire.
"""

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.core import (
    DRBACError,
    EntityDirectory,
    Principal,
    Role,
    WallClock,
    create_principal,
    format_delegation,
    parse_and_issue,
    parse_role,
    renew as renew_delegation,
)
from repro.core.errors import PublicationError
from repro.core.identity import Entity
from repro.crypto.encoding import canonical_decode, canonical_encode
from repro.crypto.keys import deserialize_keypair, serialize_keypair
from repro.wallet import Wallet, WalletStore

PRINCIPALS_FILE = "principals.bin"
WALLET_FILE = "wallet.bin"


class Workspace:
    """On-disk state: principals (with keys) plus one wallet store."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.principals: dict = {}
        self.store = WalletStore()
        self._load()

    # -- persistence -----------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _load(self) -> None:
        principals_path = self._path(PRINCIPALS_FILE)
        if os.path.exists(principals_path):
            with open(principals_path, "rb") as handle:
                records = canonical_decode(handle.read())
            for record in records:
                keypair = deserialize_keypair(record["keypair"])
                entity = Entity(public_key=keypair.public,
                                nickname=record["nickname"])
                self.principals[record["nickname"]] = Principal(
                    entity=entity, keypair=keypair)
        wallet_path = self._path(WALLET_FILE)
        if os.path.exists(wallet_path):
            self.store = WalletStore.load(wallet_path)

    def save(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        records = [
            {"nickname": name,
             "keypair": serialize_keypair(principal.keypair)}
            for name, principal in sorted(self.principals.items())
        ]
        with open(self._path(PRINCIPALS_FILE), "wb") as handle:
            handle.write(canonical_encode(records))
        self.store.save(self._path(WALLET_FILE))

    # -- derived objects ---------------------------------------------------

    def directory(self) -> EntityDirectory:
        return EntityDirectory(
            [p.entity for p in self.principals.values()])

    def wallet(self) -> Wallet:
        return Wallet(owner=None, address="cli", clock=WallClock(),
                      store=self.store)

    def principal(self, name: str) -> Principal:
        try:
            return self.principals[name]
        except KeyError:
            raise DRBACError(
                f"no entity named {name!r} in this workspace "
                f"(create it with: entity create {name})"
            ) from None


def _resolve_subject(workspace: Workspace, text: str):
    """A CLI subject argument: an entity nickname or a Role string."""
    if "." in text:
        return parse_role(text, workspace.directory())
    return workspace.principal(text).entity


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_entity_create(workspace: Workspace, args) -> int:
    if args.name in workspace.principals:
        print(f"entity {args.name!r} already exists", file=sys.stderr)
        return 1
    principal = create_principal(args.name, algorithm=args.algorithm)
    workspace.principals[args.name] = principal
    workspace.save()
    print(f"created {args.name} "
          f"({principal.entity.public_key.short_fingerprint})")
    return 0


def cmd_entity_list(workspace: Workspace, _args) -> int:
    if not workspace.principals:
        print("(no entities)")
        return 0
    for name, principal in sorted(workspace.principals.items()):
        print(f"{name:20s} {principal.entity.public_key.fingerprint}")
    return 0


def cmd_issue(workspace: Workspace, args) -> int:
    directory = workspace.directory()
    from repro.core import parse_delegation
    template = parse_delegation(args.delegation, directory)
    issuer = workspace.principal(template.issuer.nickname)
    wallet = workspace.wallet()
    delegation = parse_and_issue(args.delegation, issuer, directory,
                                 issued_at=wallet.clock.now())
    supports = []
    if delegation.required_supports():
        provider = wallet.support_provider()
        supports = list(provider(delegation))
    try:
        if args.lint:
            _lint_before_publish(wallet, delegation, supports, args)
        wallet.publish(delegation, supports)
    finally:
        if args.timing:
            from repro import obs
            registry = obs.registry()
            print(
                "# metrics: "
                f"publishes={registry.total('drbac_wallet_publishes_total'):g} "
                f"memo_hits={registry.total('drbac_crypto_memo_hits_total'):g} "
                f"memo_misses="
                f"{registry.total('drbac_crypto_memo_misses_total'):g} "
                f"hub_events="
                f"{registry.total('drbac_hub_events_published_total'):g}",
                file=sys.stderr,
            )
            from repro.crypto import encoding
            codec = encoding.codec_info()
            print(
                "# codec: "
                f"encodes={codec['encodes']:g} "
                f"({codec['encoded_bytes']:g}B) "
                f"decodes={codec['decodes']:g} "
                f"({codec['decoded_bytes']:g}B) "
                f"intern_hit_rate={codec['intern_hit_rate']:.2f}",
                file=sys.stderr,
            )
    workspace.save()
    print(f"issued {delegation.short_id}: "
          f"{format_delegation(delegation)}")
    return 0


def _lint_before_publish(wallet: Wallet, delegation, supports,
                         args) -> None:
    """Reject ``delegation`` if publishing it would add a static-analysis
    finding at or above ``--lint``; ``--timing`` reports the check."""
    from repro.analysis.static import publication_findings
    started = time.perf_counter()
    blocking = publication_findings(wallet, delegation, supports, args.lint)
    if args.timing:
        print(f"# lint gate ({args.lint}): 1 check(s), "
              f"{1 if blocking else 0} blocked, "
              f"{(time.perf_counter() - started) * 1000:.3f} ms",
              file=sys.stderr)
    if blocking:
        details = "; ".join(f"{finding.rule_id}: {finding.message}"
                            for finding in blocking)
        raise PublicationError(
            f"rejecting {delegation}: lint gate ({args.lint}) -- {details}")


def cmd_show(workspace: Workspace, _args) -> int:
    wallet = workspace.wallet()
    count = 0
    for delegation in workspace.store.delegations():
        flags = []
        if workspace.store.is_revoked(delegation.id):
            flags.append("REVOKED")
        if delegation.is_expired(wallet.clock.now()):
            flags.append("EXPIRED")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{delegation.short_id}  "
              f"{format_delegation(delegation)}{suffix}")
        count += 1
    if count == 0:
        print("(wallet is empty)")
    return 0


def cmd_query(workspace: Workspace, args) -> int:
    from repro.crypto import verify_cache
    repeat = max(1, args.repeat)
    wallet = workspace.wallet()
    directory = workspace.directory()

    def timed(run):
        """Run the query ``repeat`` times; report per-pass latency.

        Pass 1 is the cold search and later passes are cache hits --
        the repeat flag exists precisely to show that gap.
        """
        result = None
        for i in range(repeat):
            started = time.perf_counter()
            result = run()
            elapsed = (time.perf_counter() - started) * 1000
            if repeat > 1 or args.timing:
                label = "cached" if i > 0 else "cold"
                print(f"# pass {i + 1}: {elapsed:.3f} ms ({label})",
                      file=sys.stderr)
        if args.timing:
            info = verify_cache.cache_info()
            print(
                "# crypto memo: "
                f"entries={info['entries']}/{info['maxsize']} "
                f"hits={info['hits']} misses={info['misses']} "
                f"evictions={info['evictions']} "
                f"object_hits={info['object_hits']}",
                file=sys.stderr,
            )
        return result

    if args.form == "direct":
        subject = _resolve_subject(workspace, args.subject)
        obj = parse_role(args.object, directory)
        proof = timed(lambda: wallet.query_direct(subject, obj))
        if proof is None:
            print("NO PROOF")
            return 2
        print(f"PROOF ({proof.depth()} links):")
        for delegation in proof.chain:
            print(f"  {format_delegation(delegation)}")
        return 0
    if args.form == "subject":
        subject = _resolve_subject(workspace, args.subject)
        proofs = timed(lambda: wallet.query_subject(subject))
        for proof in proofs:
            print(f"{subject} => {proof.obj}  ({proof.depth()} links)")
        if not proofs:
            print("(nothing reachable)")
        return 0
    obj = parse_role(args.subject, directory)
    proofs = timed(lambda: wallet.query_object(obj))
    for proof in proofs:
        print(f"{proof.subject} => {obj}  ({proof.depth()} links)")
    if not proofs:
        print("(no grantees)")
    return 0


def _build_distributed_workload(spec: Optional[str]):
    """Build the coalition deployment named by a ``--workload`` spec.

    Shared by ``discover``, ``metrics``, and ``trace``: returns
    ``(engine, network, clock, server_wallet, subject, obj)`` with the
    subject's credential already presented at the access server, so a
    single ``server_wallet.authorize(subject, obj)`` (or
    ``engine.discover``) exercises the paper's full distributed flow.
    """
    from repro.workloads.scenarios import (
        build_distributed_case_study,
        build_distributed_federation,
    )

    parts = (spec or "case-study").split(":")
    kind = parts[0]
    if kind == "case-study":
        seed = int(parts[1]) if len(parts) > 1 else None
        d = build_distributed_case_study(seed=seed)
        # Step 2 of the walkthrough: Maria presents her credential.
        d.server.wallet.publish(d.case.d1_maria_member)
        return (d.engine, d.network, d.clock, d.server.wallet,
                d.case.maria.entity, d.case.airnet_access)
    if kind == "federation":
        domains = int(parts[1]) if len(parts) > 1 else 4
        seed = int(parts[2]) if len(parts) > 2 else None
        fed = build_distributed_federation(domains=domains, seed=seed)
        # A domain-1 user at domain 0's access server: one ring bridge.
        target, source = fed.domains[0], fed.domains[1 % domains]
        target.server.wallet.publish(source.credentials[0])
        return (target.engine, fed.network, fed.clock,
                target.server.wallet, source.users[0].entity,
                target.access)
    if kind in ("ring", "mesh", "scc", "deep"):
        from repro.workloads import topology
        from repro.workloads.scenarios import deploy_coalition
        size = int(parts[1]) if len(parts) > 1 else None
        seed = int(parts[2]) if len(parts) > 2 else None
        if kind == "ring":
            workload = topology.make_ring_coalition(size or 6, seed=seed)
        elif kind == "mesh":
            workload = topology.make_mesh_coalition(size or 6, seed=seed)
        elif kind == "scc":
            workload = topology.make_scc_heavy(size or 4, size or 4,
                                               seed=seed)
        else:
            workload = topology.make_deep_mutual_trust(size or 6,
                                                       seed=seed)
        dep = deploy_coalition(workload)
        dep.server.wallet.publish(dep.entry)
        return (dep.engine, dep.network, dep.clock, dep.server.wallet,
                workload.subject, workload.obj)
    raise DRBACError(
        f"unknown workload {spec!r} (expected case-study[:SEED], "
        f"federation[:DOMAINS[:SEED]], or a coalition family "
        f"ring|mesh|scc|deep[:SIZE[:SEED]])"
    )


def cmd_discover(_workspace: Workspace, args) -> int:
    """Distributed proof discovery over a simulated coalition deployment.

    Unlike ``query`` (which asks the local workspace wallet), this
    command builds one of the paper's distributed scenarios in-process
    and runs the tag-directed discovery protocol across its simulated
    network, reporting the wire traffic and the discovery breakdown.
    """
    from repro.discovery.engine import DiscoveryStats

    repeat = max(1, args.repeat)

    engine, network, _clock, _wallet, subject, obj = \
        _build_distributed_workload(args.workload)

    stats = DiscoveryStats()
    proof = None
    for i in range(repeat):
        started = time.perf_counter()
        proof = engine.discover(subject, obj, stats=stats)
        elapsed = (time.perf_counter() - started) * 1000
        if repeat > 1 or args.timing:
            label = "warm" if i > 0 else "cold"
            print(f"# pass {i + 1}: {elapsed:.3f} ms ({label})",
                  file=sys.stderr)
    if args.timing:
        snapshot = network.snapshot()
        print(f"# wire: {snapshot['messages']} messages, "
              f"{snapshot['bytes']} bytes", file=sys.stderr)
        s = engine.discovery_info()["stats"]
        g = engine.gem_info()
        print(
            "# discovery: "
            f"goals_sent={s['rounds']} "
            f"cache_hits={s['cache_hits']} "
            f"negative_hits={s['cache_negative_hits']} "
            f"cache_misses={s['cache_misses']} "
            f"answers_received={g['answers_received']} "
            f"answers_dropped={g['answers_dropped']} "
            f"loops_detected={g['loops_detected']} "
            f"terminates_sent={g['terminates_sent']}",
            file=sys.stderr,
        )
    if proof is None:
        print("NO PROOF")
        return 2
    print(f"PROOF ({proof.depth()} links):")
    for delegation in proof.chain:
        print(f"  {format_delegation(delegation)}")
    return 0


def cmd_metrics(_workspace: Workspace, args) -> int:
    """Run a distributed workload and dump the metrics registry.

    The workload is driven through ``Wallet.authorize`` (the paper's
    full query contract), so the dump covers the whole instrumented
    stack: wallet counters, proof-cache and discovery-cache stats,
    discovery aggregates, RPC latencies, Switchboard handshakes, and
    the signature memo.
    """
    from repro import obs
    from repro.obs.export import to_prometheus

    _engine, _network, clock, wallet, subject, obj = \
        _build_distributed_workload(args.workload)
    obs.use_clock(clock)
    repeat = max(1, args.repeat)
    grant = None
    for _ in range(repeat):
        grant = wallet.authorize(subject, obj)
    if args.format == "json":
        text = json.dumps(obs.registry().snapshot(), indent=2,
                          sort_keys=True) + "\n"
    else:
        text = to_prometheus(obs.registry())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    if grant is None:
        print("# NO PROOF (workload denied access)", file=sys.stderr)
        return 2
    return 0


def cmd_trace(_workspace: Workspace, args) -> int:
    """Run a distributed workload and export its trace spans.

    Tracing is forced on for the run regardless of ``DRBAC_OBS``; the
    buffer is cleared after deployment setup so the export holds
    exactly the authorization's span trees: ``wallet.authorize`` at the
    root, discovery, batch RPCs, handshakes, and signature verifies
    beneath it.
    """
    from repro import obs
    from repro.obs.export import spans_to_chrome, spans_to_jsonl

    with obs.enabled_ctx():
        _engine, _network, clock, wallet, subject, obj = \
            _build_distributed_workload(args.workload)
        obs.use_clock(clock)
        obs.tracer().clear()
        grant = None
        for _ in range(max(1, args.repeat)):
            grant = wallet.authorize(subject, obj)
    spans = obs.tracer().finished()
    if args.format == "jsonl":
        text = spans_to_jsonl(spans)
    else:
        text = json.dumps(spans_to_chrome(spans), indent=2,
                          sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({len(spans)} spans, "
              f"{len(obs.tracer().trees())} roots)")
    else:
        sys.stdout.write(text)
    if grant is None:
        print("# NO PROOF (workload denied access)", file=sys.stderr)
        return 2
    return 0


def cmd_revoke(workspace: Workspace, args) -> int:
    matches = [d for d in workspace.store.delegations()
               if d.id.startswith(args.delegation_id)]
    if len(matches) != 1:
        print(f"{len(matches)} delegations match "
              f"{args.delegation_id!r}", file=sys.stderr)
        return 1
    delegation = matches[0]
    issuer = workspace.principal(delegation.issuer.nickname)
    wallet = workspace.wallet()
    wallet.revoke(issuer, delegation.id)
    workspace.save()
    print(f"revoked {delegation.short_id}")
    return 0


def cmd_explain(workspace: Workspace, args) -> int:
    from repro.analysis.explain import explain_proof
    wallet = workspace.wallet()
    subject = _resolve_subject(workspace, args.subject)
    obj = parse_role(args.object, workspace.directory())
    proof = wallet.query_direct(subject, obj)
    if proof is None:
        print("NO PROOF")
        return 2
    print(explain_proof(proof))
    return 0


def cmd_audit(workspace: Workspace, args) -> int:
    from repro.analysis.audit import exposure, principals_with_access
    wallet = workspace.wallet()
    role = parse_role(args.role, workspace.directory())
    principals = principals_with_access(
        wallet.store.graph, role, at=wallet.clock.now(),
        revoked=wallet.store.is_revoked,
        support_provider=wallet.support_provider())
    if not principals:
        print(f"nobody can be proven to hold {role}")
        return 0
    print(f"principals holding {role}:")
    for entity in principals:
        print(f"  {entity.display_name} "
              f"({entity.public_key.short_fingerprint})")
    role_subjects = sorted({
        str(proof.subject)
        for proof in exposure(
            wallet.store.graph, role, at=wallet.clock.now(),
            revoked=wallet.store.is_revoked,
            support_provider=wallet.support_provider())
        if not isinstance(proof.subject, Entity)
    })
    if role_subjects:
        print(f"roles that reach it: {', '.join(role_subjects)}")
    return 0


def cmd_cut(workspace: Workspace, args) -> int:
    from repro.analysis.cut import minimal_revocation_set
    wallet = workspace.wallet()
    subject = _resolve_subject(workspace, args.subject)
    obj = parse_role(args.object, workspace.directory())
    cut = minimal_revocation_set(
        wallet.store.graph, subject, obj, at=wallet.clock.now(),
        revoked=wallet.store.is_revoked)
    if len(cut) == 0:
        print("already disconnected")
        return 0
    print(f"revoke these {len(cut)} delegation(s) to sever "
          f"{subject} => {obj} "
          f"({cut.max_disjoint_chains} disjoint chains):")
    for delegation in cut.delegations:
        print(f"  {delegation.short_id}  "
              f"{format_delegation(delegation)}")
    return 0


def cmd_dot(workspace: Workspace, args) -> int:
    from repro.analysis.explain import graph_to_dot
    wallet = workspace.wallet()
    dot = graph_to_dot(wallet.store.graph,
                       revoked=wallet.store.is_revoked)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _lint_workload(spec: str):
    """Build the workload named by a ``--workload`` spec.

    ``defective[:SEED[:WIDTHxDEPTH[:FAMILY]]]`` -- the defective-policy
    generator, optionally scaled with clean filler: the layered DAG
    (default) or one of the coalition topology families (``ring``/
    ``mesh``/``scc``/``deep``, where WIDTH is the domain count and
    DEPTH the roles per domain).
    """
    from repro.workloads.defects import (
        FILLER_FAMILIES,
        make_defective_workload,
    )
    grammar = "defective[:SEED[:WIDTHxDEPTH[:FAMILY]]]"
    name, _, rest = spec.partition(":")
    if name != "defective":
        raise DRBACError(
            f"unknown lint workload {name!r} (expected {grammar})"
        )
    seed_text, _, filler = rest.partition(":")
    try:
        seed = int(seed_text) if seed_text else None
        width = depth = 0
        family = "layered"
        if filler:
            size_text, _, family_text = filler.partition(":")
            width_text, _, depth_text = size_text.partition("x")
            width, depth = int(width_text), int(depth_text)
            if family_text:
                family = family_text
    except ValueError:
        raise DRBACError(
            f"bad lint workload spec {spec!r} (expected {grammar})"
        ) from None
    if family not in FILLER_FAMILIES:
        raise DRBACError(
            f"bad lint workload spec {spec!r}: unknown filler family "
            f"{family!r} (expected one of {', '.join(FILLER_FAMILIES)})"
        )
    return make_defective_workload(seed=seed, filler_width=width,
                                   filler_depth=depth,
                                   filler_family=family)


def cmd_lint(workspace: Workspace, args) -> int:
    from repro.analysis.static import Severity, analyze_wallet
    threshold = Severity.from_name(args.fail_on)
    rules = args.rule or None
    ignore = args.ignore or None
    workload = None
    if args.workload:
        workload = _lint_workload(args.workload)
        report = workload.analyze(rules=rules, ignore=ignore)
        report.source = workload.description
    else:
        report = analyze_wallet(workspace.wallet(), rules=rules,
                                ignore=ignore)
    # Exactness only makes sense against the full rule set.
    mismatches: List[str] = []
    if workload is not None and rules is None and ignore is None:
        mismatches = workload.verify(report)
    if args.json:
        payload = report.to_dict()
        if workload is not None:
            payload["expected"] = {
                rule: list(ids)
                for rule, ids in sorted(workload.expected.items())
            }
            payload["mismatches"] = mismatches
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in report:
            print(finding)
        counts = ", ".join(
            f"{report.count(severity)} {severity.value}"
            for severity in Severity
        )
        print(f"# {len(report)} finding(s) ({counts}) over "
              f"{report.edges} delegation(s) in "
              f"{report.elapsed_seconds * 1000:.1f} ms"
              + (f" [{report.source}]" if report.source else ""))
        for mismatch in mismatches:
            print(f"# MISMATCH {mismatch}", file=sys.stderr)
    if mismatches:
        return 1
    return 1 if report.fails(threshold) else 0


def cmd_renew(workspace: Workspace, args) -> int:
    matches = [d for d in workspace.store.delegations()
               if d.id.startswith(args.delegation_id)]
    if len(matches) != 1:
        print(f"{len(matches)} delegations match "
              f"{args.delegation_id!r}", file=sys.stderr)
        return 1
    delegation = matches[0]
    issuer = workspace.principal(delegation.issuer.nickname)
    renewed = renew_delegation(issuer, delegation, args.expiry)
    wallet = workspace.wallet()
    wallet.publish_renewal(delegation.id, renewed)
    workspace.save()
    print(f"renewed {delegation.short_id} -> {renewed.short_id} "
          f"(expiry {renewed.expiry})")
    return 0


def _service_population(args):
    from repro.service.population import ServicePopulation
    return ServicePopulation(
        seed=args.seed, population=args.population, domains=args.domains,
        skew=args.skew, hot_size=args.hot_size,
        hot_fraction=args.hot_fraction)


def cmd_serve(_workspace: Workspace, args) -> int:
    """Run the sharded wallet service behind the socket transport."""
    import asyncio

    from repro import obs
    from repro.service import Router, RouterConfig, ServiceServer

    population = _service_population(args)
    config = RouterConfig(
        shards=args.shards, mode=args.mode,
        queue_depth=args.queue_depth,
        high_watermark=args.high_watermark)
    # Injected handle: the CLI folds the router's drbac_service_*
    # metrics into the process registry so --metrics-out sees them.
    router = Router(population, config, registry=obs.get_registry())
    server = ServiceServer(router, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(f"drbac service on {server.host}:{server.port} -- "
              f"{config.shards} {config.mode} shard(s), "
              f"{population.domains} namespaces, "
              f"population {population.population}")
        sys.stdout.flush()
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        router.close()
    return 0


def cmd_loadgen(_workspace: Workspace, args) -> int:
    """Drive deterministic load at a service (socket or in-process)."""
    from repro import obs
    from repro.service import (
        BlockingClient, LoadGenerator, LoadgenConfig, Router, RouterConfig,
    )

    population = _service_population(args)
    config = LoadgenConfig(
        requests=args.requests, seed=args.run_seed,
        authorize_weight=args.authorize_weight,
        publish_weight=args.publish_weight,
        revoke_weight=args.revoke_weight)
    client = None
    router = None
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        client = BlockingClient(host or "127.0.0.1", int(port))
        submit = client.request
    else:
        router = Router(
            population,
            RouterConfig(shards=args.shards, mode=args.mode),
            registry=obs.get_registry())
        submit = router.submit
    try:
        report = LoadGenerator(population, submit, config).run()
    finally:
        if client is not None:
            client.close()
        if router is not None:
            router.close()
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

def _add_service_population_args(parser) -> None:
    parser.add_argument("--seed", type=int, default=7,
                        help="population seed (default: 7)")
    parser.add_argument("--population", type=int, default=1_000_000,
                        help="principal count (default: 1000000)")
    parser.add_argument("--domains", type=int, default=64,
                        help="issuing namespaces (default: 64)")
    parser.add_argument("--skew", type=float, default=1.0,
                        help="Zipf tail exponent (default: 1.0)")
    parser.add_argument("--hot-size", type=int, default=12_000,
                        help="hot-set size in Zipf ranks "
                             "(default: 12000)")
    parser.add_argument("--hot-fraction", type=float, default=0.95,
                        help="fraction of requests drawn from the hot "
                             "set (default: 0.95)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drbac",
        description="Local dRBAC wallet workspace "
                    "(reproduction of ICDCS 2002)",
    )
    parser.add_argument("-w", "--workspace", default=".drbac",
                        help="workspace directory (default: .drbac)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="after the command runs, dump the metrics "
                             "registry to PATH in Prometheus text "
                             "format (works with every subcommand)")
    commands = parser.add_subparsers(dest="command", required=True)

    entity = commands.add_parser("entity", help="manage identities")
    entity_sub = entity.add_subparsers(dest="entity_command",
                                       required=True)
    create = entity_sub.add_parser("create", help="mint a new identity")
    create.add_argument("name")
    create.add_argument("--algorithm", default="schnorr-secp256k1",
                        choices=["schnorr-secp256k1", "rsa-fdh-sha256"])
    create.set_defaults(func=cmd_entity_create)
    listing = entity_sub.add_parser("list", help="list identities")
    listing.set_defaults(func=cmd_entity_list)

    issue_cmd = commands.add_parser(
        "issue", help="issue a delegation from its text form")
    issue_cmd.add_argument("delegation",
                           help="e.g. \"[Maria -> BigISP.member] Mark\"")
    issue_cmd.add_argument("--lint", default=None,
                           choices=["error", "warn", "info"],
                           help="pre-publication lint gate: reject the "
                                "delegation if it would introduce a "
                                "finding at/above this severity")
    issue_cmd.add_argument("--timing", action="store_true",
                           help="report lint-gate overhead on stderr")
    issue_cmd.set_defaults(func=cmd_issue)

    show = commands.add_parser("show", help="list wallet contents")
    show.set_defaults(func=cmd_show)

    query = commands.add_parser("query", help="ask the wallet")
    query.add_argument("form", choices=["direct", "subject", "object"])
    query.add_argument("subject",
                       help="entity nickname or role (object queries: "
                            "the role)")
    query.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="run the query N times, reporting per-pass "
                            "latency on stderr (shows cold vs cached)")
    query.add_argument("--timing", action="store_true",
                       help="report query latency on stderr")
    query.add_argument("object", nargs="?",
                       help="target role (direct queries only)")
    query.set_defaults(func=cmd_query)

    discover = commands.add_parser(
        "discover",
        help="run distributed proof discovery over a simulated "
             "coalition deployment")
    discover.add_argument(
        "--workload", default="case-study", metavar="SPEC",
        help="case-study[:SEED] (the Figure 2 walkthrough), "
             "federation[:DOMAINS[:SEED]], or a coalition family "
             "ring|mesh|scc|deep[:SIZE[:SEED]] (cyclic cross-home "
             "topologies)")
    discover.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the discovery N times, reporting per-pass latency on "
             "stderr (shows cold vs result-cache-warm)")
    discover.add_argument(
        "--timing", action="store_true",
        help="report wire traffic and the discovery stats breakdown "
             "(goals sent, result-cache hits, answers received/dropped, "
             "loops detected) on stderr")
    discover.set_defaults(func=cmd_discover)

    metrics = commands.add_parser(
        "metrics",
        help="run a distributed workload and dump the metrics registry")
    metrics.add_argument(
        "--workload", default="case-study", metavar="SPEC",
        help="case-study[:SEED] or federation[:DOMAINS[:SEED]] "
             "(same specs as discover)")
    metrics.add_argument(
        "--format", default="prometheus",
        choices=["prometheus", "json"],
        help="Prometheus text exposition format (default) or the "
             "JSON registry snapshot")
    metrics.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="authorize N times before dumping (warms the caches)")
    metrics.add_argument("-o", "--output", default=None,
                         help="write the dump to a file instead of "
                              "stdout")
    metrics.set_defaults(func=cmd_metrics)

    trace = commands.add_parser(
        "trace",
        help="run a distributed workload and export its trace spans")
    trace.add_argument(
        "--workload", default="case-study", metavar="SPEC",
        help="case-study[:SEED] or federation[:DOMAINS[:SEED]] "
             "(same specs as discover)")
    trace.add_argument(
        "--format", default="chrome", choices=["chrome", "jsonl"],
        help="Chrome trace_event JSON (default; load in Perfetto or "
             "chrome://tracing) or one span per JSONL line")
    trace.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="authorize N times (pass 2+ shows the warm fast path)")
    trace.add_argument("-o", "--out", default=None,
                       help="write the trace to a file instead of "
                            "stdout")
    trace.set_defaults(func=cmd_trace)

    revoke = commands.add_parser("revoke", help="revoke a delegation")
    revoke.add_argument("delegation_id", help="id prefix")
    revoke.set_defaults(func=cmd_revoke)

    renew_cmd = commands.add_parser(
        "renew", help="extend a delegation's lifetime")
    renew_cmd.add_argument("delegation_id", help="id prefix")
    renew_cmd.add_argument("expiry", type=float,
                           help="new expiry (unix timestamp)")
    renew_cmd.set_defaults(func=cmd_renew)

    explain = commands.add_parser(
        "explain", help="show an authorization's full proof tree")
    explain.add_argument("subject")
    explain.add_argument("object")
    explain.set_defaults(func=cmd_explain)

    audit = commands.add_parser(
        "audit", help="list everyone who can reach a role")
    audit.add_argument("role")
    audit.set_defaults(func=cmd_audit)

    cut = commands.add_parser(
        "cut", help="smallest revocation set severing an authorization")
    cut.add_argument("subject")
    cut.add_argument("object")
    cut.set_defaults(func=cmd_cut)

    dot = commands.add_parser(
        "dot", help="export the wallet graph as Graphviz DOT")
    dot.add_argument("-o", "--output", default=None)
    dot.set_defaults(func=cmd_dot)

    lint = commands.add_parser(
        "lint", help="static policy analysis over the wallet graph")
    lint.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    lint.add_argument("--fail-on", default="error",
                      choices=["error", "warn", "info"],
                      help="exit 1 when a finding at/above this severity "
                           "exists (default: error)")
    lint.add_argument("--rule", action="append", metavar="ID",
                      help="run only this rule (repeatable)")
    lint.add_argument("--ignore", action="append", metavar="ID",
                      help="skip this rule (repeatable)")
    lint.add_argument("--workload", default=None, metavar="SPEC",
                      help="lint a generated workload instead of the "
                           "workspace wallet: "
                           "defective[:SEED[:WIDTHxDEPTH[:FAMILY]]]")
    lint.set_defaults(func=cmd_lint)

    serve = commands.add_parser(
        "serve", help="run the sharded wallet service (socket "
                      "transport, consistent-hash routing)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7979,
                       help="listen port; 0 picks an ephemeral port "
                            "(default: 7979)")
    serve.add_argument("--shards", type=int, default=2,
                       help="worker shard count (default: 2)")
    serve.add_argument("--mode", default="thread",
                       choices=["inline", "thread", "process"],
                       help="shard backend (default: thread)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bounded per-shard queue (default: 64)")
    serve.add_argument("--high-watermark", type=int, default=48,
                       help="shed with RETRY_LATER above this depth "
                            "(default: 48)")
    _add_service_population_args(serve)
    serve.set_defaults(func=cmd_serve)

    loadgen = commands.add_parser(
        "loadgen", help="drive deterministic Zipfian load at a "
                        "service (local or over sockets)")
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="target a running `drbac serve`; "
                              "default runs an in-process service")
    loadgen.add_argument("--shards", type=int, default=2,
                         help="in-process service shard count "
                              "(default: 2)")
    loadgen.add_argument("--mode", default="inline",
                         choices=["inline", "thread", "process"],
                         help="in-process shard backend "
                              "(default: inline)")
    loadgen.add_argument("--requests", type=int, default=10_000,
                         help="request count (default: 10000)")
    loadgen.add_argument("--run-seed", type=int, default=1,
                         help="request-stream seed (default: 1)")
    loadgen.add_argument("--authorize-weight", type=float, default=0.96)
    loadgen.add_argument("--publish-weight", type=float, default=0.03)
    loadgen.add_argument("--revoke-weight", type=float, default=0.01)
    _add_service_population_args(loadgen)
    loadgen.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "query" and args.form == "direct" \
            and args.object is None:
        parser.error("direct queries need SUBJECT and OBJECT")
    workspace = Workspace(args.workspace)
    try:
        return args.func(workspace, args)
    except DRBACError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.metrics_out:
            from repro import obs
            from repro.obs.export import to_prometheus
            with open(args.metrics_out, "w") as handle:
                handle.write(to_prometheus(obs.registry()))


if __name__ == "__main__":
    sys.exit(main())

"""Output checks run after every round, and the round's state digest.

A round passes only if:

* committed + aborted + failed equals the transactions submitted, and the
  sites' own coordinator counters agree with the client records;
* every replica of each document is byte-identical;
* every lock table is empty and every wait-for graph has no edges;
* each site's DataGuide validates against its copy of each document;
* each view shadow equals its document at the primary (the workload's
  drain time lets the shadows catch up with the last commits).
"""

from __future__ import annotations

import hashlib

from repro.errors import ReproError
from repro.xml import serialize_document

def state_digest(cluster) -> str:
    """sha256 over every replica's serialization, in a fixed order."""
    h = hashlib.sha256()
    catalog = cluster.catalog
    for name in sorted(catalog.all_documents()):
        for sid in sorted(catalog.sites_for(name), key=str):
            h.update(f"{name}@{sid}\n".encode())
            h.update(serialize_document(cluster.document_at(sid, name)).encode())
    return h.hexdigest()


def check_round(prepared, result) -> list[str]:
    """Every failed check of one finished round, as readable lines."""
    cluster = prepared.cluster
    errors: list[str] = []
    records = result.records
    committed, aborted, failed = (
        len(result.committed), len(result.aborted), len(result.failed)
    )
    submitted = sum(1 + r.restarts for r in records)
    if committed + aborted + failed != submitted:
        errors.append(
            f"accounting: {committed} committed + {aborted} aborted + {failed} "
            f"failed != {submitted} submitted"
        )
    if len(records) != len(prepared.transactions):
        errors.append(
            f"accounting: {len(records)} records for "
            f"{len(prepared.transactions)} transactions"
        )
    stats = [site.stats for site in cluster.sites.values()]
    coordinated = sum(s.coordinated for s in stats)
    if coordinated != submitted:
        errors.append(f"accounting: sites coordinated {coordinated} != {submitted} submitted")
    if sum(s.commits for s in stats) != committed:
        errors.append("accounting: site commit counters disagree with client records")

    catalog = cluster.catalog
    for name in sorted(catalog.all_documents()):
        texts = {
            sid: serialize_document(cluster.document_at(sid, name))
            for sid in catalog.sites_for(name)
        }
        if len(set(texts.values())) != 1:
            errors.append(f"replicas of {name} differ across {sorted(texts, key=str)}")

    for sid, site in cluster.sites.items():
        manager = site.lock_manager
        if not manager.table.is_empty():
            errors.append(f"{sid}: lock table holds {manager.table.lock_count()} locks")
        if manager.wfg.edge_count:
            errors.append(f"{sid}: wait-for graph has {manager.wfg.edge_count} edges")
        for name in site.documents_hosted():
            try:
                site.protocol.guide(name).validate_against(site.data_manager.document(name))
            except ReproError as exc:
                errors.append(f"{sid}: DataGuide of {name} invalid: {exc}")

    for host, doc_names in prepared.views:
        states = cluster.site(host).views.states
        for name in doc_names:
            primary = catalog.primary_site(name)
            want = serialize_document(cluster.document_at(primary, name))
            shadow = states[name].doc
            if shadow is None or serialize_document(shadow) != want:
                errors.append(f"view shadow of {name} at {host} != primary {primary}")
    return errors

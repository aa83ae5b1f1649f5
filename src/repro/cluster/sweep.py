"""Fleet-wide revocation: one epoch, every shard, no stale node.

:func:`sweep_cluster` is the cluster counterpart of
:meth:`repro.service.client.OwnerClient.sweep_revocation`: one
Section V-C revocation pushed through a ``REENCRYPT_SWEEP`` request *per
node*, fanned out concurrently, with each node's progress frames
streamed back tagged by node name.

Determinism is the whole point of the orchestration order:

* the owner computes every update information exactly **once** (one
  bulk :meth:`~repro.core.owner.DataOwner.update_infos_for_records`
  call, identical to the single-node sweep), and each node receives the
  *same encoded bytes* for the ciphertexts it holds — ReEncrypt is
  deterministic given (ciphertext, UK, UI), so all replicas of a record
  land byte-identical to each other *and* to what a single-node sweep
  of the same world would have produced;
* a ciphertext only counts as **converged** when every replica node
  assigned to it reports ``updated`` or ``already_current``. The ledger
  rolls forward (``note_reencrypted``) for converged ciphertexts only,
  and the owner's authority epoch (``apply_update_key``) only rolls
  once *every* eligible ciphertext converged — so no node is ever left
  serving a stale version behind an epoch the owner considers done.

Partial failure needs no checkpoint file: rerunning the same sweep is
the resume. Converged ciphertexts left the eligible set when their
ledger entries rolled; unconverged ones are re-sent, and nodes that
already re-encrypted them answer ``already_current`` (the sweep is
idempotent per node, and each node request rides its own idempotency
envelope besides).
"""

from __future__ import annotations

from repro.core.owner import DataOwner
from repro.parallel import gather_bounded
from repro.service.client import send_sweep


async def sweep_cluster(cluster, core: DataOwner, update_key, *,
                        include_uk2: bool = True, on_progress=None) -> dict:
    """Re-encrypt every eligible ciphertext on every node that holds it.

    ``on_progress`` (optional) receives each node's streamed progress
    dict with a ``node`` key added. Returns a summary::

        {"eligible": n, "converged": [...], "pending": [...],
         "nodes": {node: server summary}, "errors": {node: repr},
         "epoch_rolled": bool}

    ``pending`` non-empty means some replica did not confirm — the
    ledger did *not* roll for those ciphertexts and the update key was
    *not* applied; fix the node and rerun the same sweep to resume.
    """
    from repro.core.revocation import strip_uk2

    server_key = update_key if include_uk2 else strip_uk2(update_key)
    eligible = core.records_for_update(update_key)
    # One bulk UI computation for the whole fleet: every node sees the
    # same update information, hence the same encoded bytes, which is
    # what makes replicas land byte-identical.
    infos = core.update_infos_for_records(eligible, update_key)

    assignments = {}     # node name -> [index into eligible]
    assigned_nodes = {}  # ciphertext id -> [node names holding it]
    for index, ciphertext_id in enumerate(eligible):
        record_id = ciphertext_id.rsplit("/", 1)[0]
        names = [node.name
                 for node in cluster.map.replicas_for(record_id)]
        assigned_nodes[ciphertext_id] = names
        for name in names:
            assignments.setdefault(name, []).append(index)

    node_summaries, node_errors = {}, {}
    if assignments:
        async def sweep_node(name):
            def node_progress(frame):
                if on_progress is not None:
                    on_progress(dict(frame, node=name))

            return await send_sweep(
                await cluster.connection(name), server_key,
                [infos[index] for index in assignments[name]],
                on_progress=node_progress,
            )

        names = sorted(assignments)
        outcomes = await gather_bounded(
            [lambda name=name: sweep_node(name) for name in names],
            limit=cluster.fanout_limit,
        )
        for name, outcome in zip(names, outcomes):
            if isinstance(outcome, Exception):
                node_errors[name] = repr(outcome)
                cluster._bump("sweep-failed", name)
            else:
                node_summaries[name] = outcome
                cluster._bump("sweep-done", name)

    def swept_on(name) -> set:
        summary = node_summaries.get(name)
        if summary is None:
            return set()
        return set(summary.get("updated", ())) \
            | set(summary.get("already_current", ()))

    converged, pending = [], []
    for ciphertext_id in eligible:
        if all(ciphertext_id in swept_on(name)
               for name in assigned_nodes[ciphertext_id]):
            converged.append(ciphertext_id)
        else:
            pending.append(ciphertext_id)

    # The ledger rolls only for fully converged ciphertexts: a rerun
    # recomputes `eligible` from the ledger, so everything pending here
    # is re-sent and the already-swept nodes answer `already_current`.
    for ciphertext_id in converged:
        if core.record(ciphertext_id).versions.get(update_key.aid) \
                == update_key.from_version:
            core.note_reencrypted(ciphertext_id, update_key)
    epoch_rolled = False
    if not pending and core.authority_version(update_key.aid) \
            == update_key.from_version:
        core.apply_update_key(update_key)
        epoch_rolled = True
    return {
        "eligible": len(eligible),
        "converged": converged,
        "pending": pending,
        "nodes": node_summaries,
        "errors": node_errors,
        "epoch_rolled": epoch_rolled,
    }

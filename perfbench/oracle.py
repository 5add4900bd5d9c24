"""Replay every answered operation against an in-process oracle.

A recommendation answered 200 must be complete (not partial, not
degraded) and equal, id for id and score for score, to what a fresh
:class:`~repro.serving.ServingGateway` over the single saved index
returns once it has folded the first ``applied_seq`` logged
interactions (the index state the response reports it was served
from).  An acknowledged interaction must be in the durable log.
"""

from __future__ import annotations


def verify(rows: list[dict], index_path, log_path) -> list[str]:
    """One message per failed operation (an empty list means all correct).

    *rows* are the load generator's rows with ``body`` already parsed
    (``None`` for a non-JSON body).
    """
    from repro.io import load_index
    from repro.net.interactions import interaction_pairs, read_interactions
    from repro.serving import ServingGateway

    failures: list[str] = []
    records = read_interactions(log_path) if log_path.exists() else []
    logged = {record["interaction_id"] for record in records}
    groups: dict[int, dict[tuple, list[dict]]] = {}
    for row in rows:
        what = f"{row['kind']} {row['a']} {row['b']} (request {row['id']})"
        body = row["body"]
        if row["status"] != 200 or not isinstance(body, dict):
            failures.append(f"{what}: status {row['status']}")
        elif row["kind"] == "interaction":
            if body.get("interaction_id") not in logged:
                failures.append(f"{what}: acknowledged but not in the log")
        elif body.get("partial") or body.get("degraded"):
            failures.append(f"{what}: partial or degraded ranking")
        else:
            key = (row["a"], int(row["b"]))
            groups.setdefault(int(body["applied_seq"]), {}).setdefault(key, []).append(row)
    if not groups:
        return failures
    gateway = ServingGateway(load_index(index_path))
    applied = 0
    for seq in sorted(groups):
        if seq > len(records):
            failures.append(f"applied_seq {seq} beyond the {len(records)} logged")
            continue
        if seq > applied:
            gateway.apply_comments(interaction_pairs(records[applied:seq]))
            applied = seq
        for (video, top_k), answered in groups[seq].items():
            result = gateway.recommend(video, top_k)
            expected = [
                {"videoId": vid, "score": float(result.scores[rank])}
                for rank, vid in enumerate(result)
            ]
            for row in answered:
                if row["body"]["recommendations"] != expected:
                    failures.append(
                        f"recommend {video} {top_k} (request {row['id']}): ranking "
                        f"differs from the oracle at applied_seq {seq}"
                    )
    if hasattr(gateway, "close"):
        gateway.close()
    return failures

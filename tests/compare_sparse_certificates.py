"""Check the NCC certificates of this tree against those of another tree.

The other tree's ``check_ncc`` runs in a subprocess on every query of
``test_certify.pinned_queries`` and reports its nonzero flows by edge id. In
the form before certificates went sparse, a ``holds`` certificate listed every
interior edge as a pair (``interior_edges``) with its flow, zeros included;
those flows are read by the edge id of their pair. This process then checks
that each current certificate holds the same nonzero (id, flow) pairs,
boundary edges, cut, failed_bits, scale, verdict and orientations_total, and
that it re-verifies. Exits 1 on any difference.

    git archive dc0aa63 | tar -x -C OLD    # the last commit with the dense form
    PYTHONPATH=src:tests python tests/compare_sparse_certificates.py OLD

With ``--flows-may-differ`` (for a kernel that finds another maximum flow), a
``holds`` certificate may hold other flows: each such query is named, must
re-verify, and everything else must still be equal.
"""

import dataclasses
import json
import os
import subprocess
import sys

FAMILIES = ("preset", "8x4", "mixed-weights", "n1e3")

OLD = r"""
import json, sys, dataclasses
from test_certify import pinned_queries
from netlasso.certify import check_ncc
out = []
for family in sys.argv[1:]:
    for q in pinned_queries(family):
        c = check_ncc(q)
        flows = None
        if hasattr(c, "interior_edges"):
            if c.interior_flows is not None:
                flows = [[q.graph.edge_id(*e), f]
                         for e, f in zip(c.interior_edges, c.interior_flows) if f]
        elif c.interior_flows is not None:
            flows = [list(p) for p in c.interior_flows]
        out.append({"family": family, "verdict": c.verdict, "scale": c.scale,
                    "orientations_total": c.orientations_total, "failed_bits": c.failed_bits,
                    "cut": None if c.cut is None else list(dataclasses.astuple(c.cut)),
                    "boundary_edges": [list(e) for e in c.boundary_edges], "flows": flows})
json.dump(out, sys.stdout)
"""


def old_certificates(old_dir: str) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.join(old_dir, d) for d in ("src", "tests")
    )
    run = subprocess.run(
        [sys.executable, "-c", OLD, *FAMILIES], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(run.stdout)


def main(old_dir: str, flows_may_differ: bool = False) -> int:
    from test_certify import pinned_queries
    from netlasso.certify import check_ncc, verify_ncc_cut, verify_ncc_witnesses

    old = old_certificates(old_dir)
    new = [(f, q, check_ncc(q)) for f in FAMILIES for q in pinned_queries(f)]
    assert len(old) == len(new), (len(old), len(new))
    bad = 0
    counts = {}
    for o, (family, q, c) in zip(old, new):
        index = counts[family] = counts.get(family, 0) + 1
        same = (
            o["family"] == family
            and o["verdict"] == c.verdict
            and o["scale"] == c.scale
            and o["orientations_total"] == c.orientations_total
            and o["failed_bits"] == c.failed_bits
            and o["cut"] == json.loads(json.dumps(c.cut and dataclasses.astuple(c.cut)))
            and o["boundary_edges"] == [list(e) for e in c.boundary_edges]
        )
        flows = None if c.interior_flows is None else [list(p) for p in c.interior_flows]
        if o["flows"] != flows:
            if flows_may_differ:
                print(f"flows differ in {family} query {index} (K={q.K}, L={q.L}, "
                      f"{len(o['flows'])} -> {len(flows)} nonzero)")
            else:
                same = False
        verify = verify_ncc_witnesses if c.verdict == "holds" else verify_ncc_cut
        if not (same and verify(q, c)):
            bad += 1
            print(f"MISMATCH in {family} query {index}: verdict {c.verdict}", file=sys.stderr)
    print(f"{len(new)} queries {counts}: {bad} differ or fail to re-verify")
    return 1 if bad else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    may_differ = "--flows-may-differ" in args
    sys.exit(main(*(a for a in args if a != "--flows-may-differ"), may_differ))

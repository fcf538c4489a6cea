"""The benchmark's workloads: fixed presets whose exact outputs are pinned.

Each builder does the set-up a user does (preset, Hierarchy or
AnsatzProblem) and returns a ``run(phase)`` function.  ``run`` performs the
computation, timing its named steps through ``phase(name, fn, *args)``, and
returns ``(document, problems)``: the document whose canonical JSON is
hashed and compared with ``DIGESTS``, and a list of failed checks other
than the digest.

The results are exact, so a faster program must produce the same bytes:
a changed digest is a failure, never a new baseline.
"""

import hashlib
import json

DIGESTS = {
    "classical-gen":
        "39a1d36206bdd5d79db17ed8f7ff4474213f01072ffa3daf46883a8032e70280",
    "quantum-verify":
        "cc05583000e3e199ef6226a07787b1b01269c85406077151f00a9b1091d448e5",
    "ansatz-g3":
        "48db76545f9429f4bc8c20407f4ce47ad219d56d48c8868097d014565c266497",
}


def digest(doc):
    """sha256 of the canonical JSON of a result document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def classical_gen(lh):
    """spin4 classical, first flow through level 3: peel and dx^-1 dominate.

    Only alpha = 1: all three flows take 8 s a process, too few samples a
    run for a steady median on a shared host; the first flow alone keeps
    the same profile (dx_inverse 86%, its var_deriv pre-check 30%).
    """
    hierarchy = lh.Hierarchy(lh.presets.spin4(mode="classical"))

    def run(phase):
        phase("generate_s", hierarchy.generate, 3, [1])
        return hierarchy.serialize(), []

    return run


def quantum_verify(lh):
    """toda quantum through level 2, then the identity battery at level 1."""
    hierarchy = lh.Hierarchy(lh.presets.toda(mode="quantum"))

    def run(phase):
        phase("generate_s", hierarchy.generate, 2)
        report = phase("verify_s", hierarchy.report, 1)
        problems = [f"{e['check']} {e['indices']}: nonzero residual"
                    for e in report if e["residual"]]
        if len(report) != 14:
            problems.append(f"report has {len(report)} checks, expected 14")
        return {"hierarchy": hierarchy.serialize(), "report": report}, problems

    return run


def ansatz_g3(lh):
    """Genus-3 slice of the quantum rank-1 family over its genus <= 2 part."""
    spec = lh.presets.rank1(mode="quantum", genus=3)
    known = spec.ring.zero()
    for g in range(3):
        known = known + spec.generator.genus_part(g)
    problem = lh.AnsatzProblem(spec.ring, known, 3, d_check=2,
                               diff_degree_bound=3)

    def run(phase):
        solution = phase("solve_s", lh.solve_dr_type, problem)
        problems = []
        if len(problem.basis) != 48:
            problems.append(f"{len(problem.basis)} unknowns, expected 48")
        if solution.dimension() != 8:
            problems.append(f"dimension {solution.dimension()}, expected 8")
        return solution.serialize(), problems

    return run


BUILDERS = {
    "classical-gen": classical_gen,
    "quantum-verify": quantum_verify,
    "ansatz-g3": ansatz_g3,
}

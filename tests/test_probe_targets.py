import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# lists every (module, attribute) the benchmark's probe patches, the way
# perfbench/job.py installs it, and whether each is there to patch
LIST_TARGETS = """
import json
import probe
from coupledwave import assembly, cli, mesh, mms, scheme, sparse_linalg

targets = []


class Listing(probe.Recorder):
    def _patch(self, module, attr, make):
        targets.append([module.__name__, attr, callable(getattr(module, attr, None))])
        super()._patch(module, attr, make)


Listing(trace=True).install({
    "cli": cli, "mesh": mesh, "assembly": assembly,
    "scheme": scheme, "sparse_linalg": sparse_linalg, "mms": mms,
})
print(json.dumps(targets))
"""


def test_every_probe_target_exists():
    # the probe skips a missing name silently, which would drop its span from
    # the benchmark's per-layer metrics; the child patches its own modules
    # only, and writes no bytecode into perfbench/
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", LIST_TARGETS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                 PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert proc.returncode == 0, proc.stderr
    targets = json.loads(proc.stdout)
    missing = [f"{module}.{attr}" for module, attr, present in targets if not present]
    assert targets and not missing, missing


def test_observers_keep_the_modules_the_probe_names_spans_after():
    # the probe names an observer's span after the last part of its class's
    # module: energy.tracker and mms.error_observer, else a generic observer
    from coupledwave import assembly, energy, mesh, mms, scheme

    m = mesh.generate_unit_square(2)
    mass, stiffness = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
    params = scheme.SchemeParams(c=1.0, eps_u=0.0, eps_v=0.0, alpha=1.0, k=0.5, T=1.0)
    tracker = energy.EnergyTracker(mass, stiffness, params)
    case = mms.build_case("separable-decay", params)
    observer = mms._ErrorObserver(mass, stiffness, case, scheme.sine_mode(m.vertices), params)
    assert type(tracker).__module__.rsplit(".", 1)[-1] == "energy"
    assert type(observer).__module__.rsplit(".", 1)[-1] == "mms"


def test_cg_calls_carry_the_sizes_the_probe_counts_bytes_from(monkeypatch):
    # the probe's per-layer counts (iterations, SpMV bytes) read the first
    # argument of every cg_jacobi call: its shape, nnz and index arrays; each
    # call solves one N x N block.  On the dense route the exact start meets
    # the rule on both blocks before any CG entry, so no call happens there
    from coupledwave import assembly, mesh, scheme, sparse_linalg

    matrices = []
    cg = sparse_linalg.cg_jacobi

    def recording(A, *args, **kwargs):
        matrices.append(A)
        return cg(A, *args, **kwargs)

    monkeypatch.setattr(sparse_linalg, "cg_jacobi", recording)
    params = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.05, T=0.25)
    for n_side, route, calls_per_step in ((20, "projected", 2), (6, "dense inverse", 0)):
        m = mesh.generate_unit_square(n_side)
        n = (n_side - 1) ** 2
        assert scheme.solver_start(n, sparse_linalg.SolverConfig()).startswith(route)
        matrices.clear()
        scheme.run(m, assembly.assemble_mass(m), assembly.assemble_stiffness(m), params,
                   scheme.initial_preset("sine"))
        assert len(matrices) == calls_per_step * (params.M_steps - 1)
        for A in matrices:
            assert A.shape == (n, n) and A.nnz > 0 and A.indices.itemsize == 4

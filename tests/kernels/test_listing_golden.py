"""Exact listing golden for the kernels that lower through the IR.

``listing_golden.json`` pins the sha256 of ``Program.listing()`` for
memcpy, stream, saxpy and dot on every ISA (scale 0.17, seed 0).  The
IR emits one vector-length-agnostic program per ISA, so the build must
be the same at 128, 256 and 512 bits; each build also runs functionally
at each width and verifies against the NumPy reference.  A change to
the IR or a backend that moves an instruction of these kernels fails
here, naming the kernel and ISA; a deliberate one regenerates the
golden and prints which builds moved::

    PYTHONPATH=src python tests/kernels/test_listing_golden.py
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.kernels import ALL_ISAS, get_kernel
from repro.sim.functional import FunctionalSimulator

KERNELS = ("memcpy", "stream", "saxpy", "dot")
VECTOR_BITS = (128, 256, 512)
SCALE = 0.17
SEED = 0
GOLDEN_PATH = Path(__file__).with_name("listing_golden.json")


def listing_digest(name: str, isa: str, vector_bits: int = 512):
    """``(sha256 of the build's listing, program, workload)``."""
    kernel = get_kernel(name)
    wl = kernel.workload(seed=SEED, scale=SCALE)
    program = kernel.build(isa, wl, vector_bits)
    digest = hashlib.sha256(program.listing().encode("utf-8")).hexdigest()
    return digest, program, wl


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_build(golden):
    assert set(golden) == {f"{k}/{isa}" for k in KERNELS for isa in ALL_ISAS}


@pytest.mark.parametrize("vector_bits", VECTOR_BITS)
@pytest.mark.parametrize("isa", ALL_ISAS)
@pytest.mark.parametrize("name", KERNELS)
def test_build_matches_golden_and_verifies(golden, name, isa, vector_bits):
    digest, program, wl = listing_digest(name, isa, vector_bits)
    assert digest == golden[f"{name}/{isa}"], (
        f"{name}/{isa} at {vector_bits} bits: listing diverged from "
        f"{GOLDEN_PATH.name}"
    )
    FunctionalSimulator(program, memory=wl.memory, vector_bits=vector_bits).run()
    wl.verify()


def regenerate() -> int:
    """Rebuild every listing, print the builds whose digest moved and
    rewrite the golden."""
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = {
        f"{name}/{isa}": listing_digest(name, isa)[0]
        for name in KERNELS
        for isa in ALL_ISAS
    }
    changed = [build for build in new if old.get(build) != new[build]]
    for build in changed:
        print(f"{build}: {old.get(build)} -> {new[build]}")
    GOLDEN_PATH.write_text(json.dumps(new, indent=1) + "\n")
    print(f"{GOLDEN_PATH.name}: {len(new)} builds, {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())

"""Deterministic random-stream derivation.

Every stochastic quantity in the simulated DRAM substrate (sense-amplifier
offsets, spatial variation fields, thermal-noise draws, trace arrivals)
must be *reproducible*: re-running a characterization on the same module
must yield bit-identical results, regardless of the order in which segments
are visited or which process visits them.

To get that property we never share a mutable RNG between components.
Instead each draw site derives a fresh :class:`numpy.random.Generator`
from a hierarchical key: a root seed plus a tuple of (domain string,
integer coordinates).  The same key always yields the same stream; distinct
keys yield statistically independent streams (``numpy.random.SeedSequence``
guarantees this by design).

Two kinds of stream share that key scheme:

* **Substrate streams** (:func:`generator_for`): the module's fixed
  physics -- SA offsets, variation fields, failure maps, chip trends,
  the Table 3 population.  Each is a Philox generator over the draw
  site's key, drawn once from its start.
* **Thermal streams** (:func:`generator_from_key`): the per-iteration
  settling noise of bulk generation.  One PCG64 stream per (module
  seed, ``"quac-thermal"``, :data:`STREAM_EPOCH`, bank group, bank,
  segment).  :func:`repro.dram.sense_amplifier.sample_iterations`
  positions iterations on that stream and uses ``PCG64.advance`` to
  jump straight to any of them, so iteration ``k`` is a pure function
  of (module seed, bank, segment, ``k``) -- independent of batch sizes,
  backends and request splits (the counter-based design of Salmon et
  al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11, on
  O'Neill's PCG).  A ``W``-bit iteration ``k`` is the ``D = B + R``
  raw 64-bit draws from draw ``k * D``
  (:func:`repro.dram.sense_amplifier.row_draws`): ``B = ceil(W / 8)``
  draws of one decision byte per bitline, then ``R = max(8, ceil(W /
  128))`` draws of 24-bit refinement lanes that only ties read (exact
  lazy lanes, :func:`repro.dram.sense_amplifier.sample_settles`).
  Ties past a row's ``2R`` lanes read from ``2**126`` draws past the
  row's first draw.  ``tests/stream_spec.py`` states the layout as
  code.

Example
-------
>>> gen_a = generator_for(1234, "sa-offset", 0, 17)
>>> gen_b = generator_for(1234, "sa-offset", 0, 17)
>>> float(gen_a.standard_normal()) == float(gen_b.standard_normal())
True
>>> key = derive_key(1234, "quac-thermal", STREAM_EPOCH, 0, 0, 5)
>>> long = generator_from_key(key).bit_generator.random_raw(6)
>>> skip = generator_from_key(key, first_draw=4).bit_generator.random_raw(2)
>>> bool((long[4:] == skip).all())
True
"""

from __future__ import annotations

import hashlib
import struct
from typing import Tuple

import numpy as np

#: Number of 32-bit words taken from the hash to build a SeedSequence key.
_KEY_WORDS = 8

#: Version of the thermal-noise stream layout.  It is part of every
#: thermal key, so bumping it re-keys all bulk-generation streams (and
#: invalidates the golden streams in ``tests/test_determinism.py``)
#: while leaving the substrate streams untouched.  Epoch 2 spent one
#: 32-bit lane per bitline; epoch 3 reads one decision byte per
#: bitline and a 24-bit refinement lane per tie (same ``P(1)``,
#: about a quarter of the draws).
STREAM_EPOCH = 3


def derive_key(root_seed: int, domain: str, *coords: int) -> Tuple[int, ...]:
    """Derive a stable integer key for (root_seed, domain, coords).

    The key is the SHA-256 digest of a canonical encoding, split into
    32-bit words.  Using a cryptographic hash makes the mapping from
    coordinates to streams free of accidental structure (e.g. neighbouring
    segments do not get correlated streams).
    """
    text = f"{root_seed}/{domain}/" + "/".join(str(int(c)) for c in coords)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return struct.unpack(f"<{_KEY_WORDS}I", digest)


def generator_from_key(key: Tuple[int, ...],
                       first_draw: int = 0) -> np.random.Generator:
    """Build the thermal-noise Generator for a derived key.

    A PCG64 stream seeded through ``SeedSequence(key)`` and advanced by
    ``first_draw`` raw 64-bit draws, so a worker can start at any
    iteration of a segment's stream without drawing what precedes it
    (``PCG64.advance`` is O(log n)).  The key is derived serially where
    the draw is planned (:meth:`repro.core.quac.QuacExecutor.plan_direct`)
    and travels to wherever it executes -- possibly a worker process of
    :mod:`repro.core.parallel` -- and the expansion is identical there,
    so parent and worker draws are bit-identical.
    """
    bit_generator = np.random.PCG64(
        np.random.SeedSequence(tuple(int(word) for word in key)))
    bit_generator.advance(first_draw)
    return np.random.Generator(bit_generator)


def generator_for(root_seed: int, domain: str, *coords: int) -> np.random.Generator:
    """Return a fresh, deterministic substrate Generator for a draw site.

    Parameters
    ----------
    root_seed:
        The experiment- or module-level seed.
    domain:
        A short string naming what is being drawn (``"sa-offset"``,
        ``"row-weight"``, ...).  Distinct domains get independent streams
        even for identical coordinates.
    coords:
        Integer coordinates of the draw site (module id, segment id, ...).
    """
    seq = np.random.SeedSequence(derive_key(root_seed, domain, *coords))
    return np.random.Generator(np.random.Philox(seq))

"""Fixed-seed stability lock on the verify generator's output stream.

The generator's merger-spacing and splitter-growth logic is shared with
the synthesis builder (:mod:`repro.synth.builder`); these digests were
captured from the pre-hoist implementation, so any behavioral drift in
the shared helpers — bump order, tie-breaking, shortfall arithmetic —
shows up here as a key mismatch before it can silently reshuffle every
seeded campaign and corpus entry.
"""

import pytest

from repro.verify import generator
from repro.verify.generator import example_rng, generate_spec, profile

#: ``profile/seed/example`` -> NetlistSpec.key() of the generated spec,
#: captured before the legality helpers were hoisted into repro.synth.
DIGESTS = {
    "smoke/0/0": "413447d20874",
    "smoke/0/1": "488e6ccd965f",
    "smoke/0/2": "37b60941a366",
    "smoke/0/3": "38777a9831f0",
    "smoke/1/0": "814ff4ba9ffa",
    "smoke/1/1": "7337f39b65f9",
    "smoke/1/2": "11df19bf11a1",
    "smoke/1/3": "72a0c92586fc",
    "smoke/7/0": "37ff3b61f385",
    "smoke/7/1": "9d701fd26420",
    "smoke/7/2": "65f838ff8ece",
    "smoke/7/3": "49c1817625a9",
    "ci/0/0": "2ba7e947b01a",
    "ci/0/1": "e8e711a7690e",
    "ci/0/2": "6b50732b990d",
    "ci/0/3": "aae93139e006",
    "ci/1/0": "71992d04d13a",
    "ci/1/1": "0ed806f99da7",
    "ci/1/2": "26f89d8b15b6",
    "ci/1/3": "588e05fb1706",
    "ci/7/0": "4cfafbad7973",
    "ci/7/1": "9ae8e21bc5ec",
    "ci/7/2": "9da0d9c63679",
    "ci/7/3": "7c1b94066605",
    "nightly/0/0": "c28506c4f29e",
    "nightly/0/1": "a8e4cd0152e3",
    "nightly/0/2": "dd2cc59863d9",
    "nightly/0/3": "a79ac1ea9670",
    "nightly/1/0": "b38a09d4e616",
    "nightly/1/1": "3db39097c304",
    "nightly/1/2": "97e3f7c7c489",
    "nightly/1/3": "82ea5bb6abcb",
    "nightly/7/0": "d56995075f57",
    "nightly/7/1": "781b86f336b2",
    "nightly/7/2": "4a59420fe9fe",
    "nightly/7/3": "f4ca16c5a77d",
}


#: The draw table the digests above were captured with: every kind but
#: the balancer, which was appended to ``KIND_WEIGHTS`` later.
LEGACY_WEIGHTS = tuple(
    entry for entry in generator.KIND_WEIGHTS if entry[0] != "Balancer"
)

#: Keys of the cases whose draw reaches the balancer under the current
#: table; every other case keeps its legacy key.
BALANCER_DIGESTS = {
    "ci/0/1": "574e5a8a7492",
    "ci/1/3": "54136e847e0e",
    "ci/7/1": "ebb0af857a33",
    "nightly/0/3": "07d0b7910f5c",
    "nightly/1/1": "491b23bda547",
    "nightly/1/3": "8e6522ece6f8",
    "nightly/7/1": "7a19b54f8ae6",
}


def _generate(case):
    prof_name, seed, example = case.split("/")
    return generate_spec(example_rng(int(seed), int(example)),
                         profile(prof_name))


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_generated_spec_keys_are_byte_stable(case, monkeypatch):
    monkeypatch.setattr(generator, "KIND_WEIGHTS", LEGACY_WEIGHTS)
    assert _generate(case).key() == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_balancer_draw_changes_only_the_specs_that_draw_it(case):
    """The balancer sits last in the draw table, so adding it left the
    stream of every spec that does not draw one byte-identical."""
    assert generator.KIND_WEIGHTS[-1][0] == "Balancer"
    spec = _generate(case)
    assert spec.key() == BALANCER_DIGESTS.get(case, DIGESTS[case])
    draws_balancer = any(cell.kind == "Balancer" for cell in spec.cells)
    assert draws_balancer == (case in BALANCER_DIGESTS)

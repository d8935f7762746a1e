"""Slot ownership, checked by scanning the state: the free map's
allocated set is exactly the disjoint union of every strand's media and
index slots."""


def owned_slots(msm):
    """Every slot a strand owns: media blocks, then index blocks."""
    owned = []
    for strand_id in msm.strand_ids():
        strand = msm.get_strand(strand_id)
        owned += strand.slots() + strand.index.assigned_slots()
    return owned


def assert_ownership_exact(msm):
    owned = owned_slots(msm)
    assert len(owned) == len(set(owned)), "two blocks share a slot"
    assert msm.freemap.slots - msm.freemap.free_count == len(owned)
    assert msm.freemap.used_slots() == sorted(owned)

import dataclasses

import pytest

from dualpairs import uniform


@pytest.fixture
def planted_b_defect(monkeypatch):
    """Make uniform.relation_set drop the smallest pair of every nonempty B."""
    real = uniform.relation_set

    def planted(Z, Zp, kind):
        rel = real(Z, Zp, kind)
        if kind == "D" or not rel.masks:
            return rel
        smallest = min(
            rel.masks,
            key=lambda p: (Z.member(p[0]).sort_key(), Zp.member(p[1]).sort_key()),
        )
        return dataclasses.replace(rel, masks=rel.masks - {smallest})

    monkeypatch.setattr(uniform, "relation_set", planted)

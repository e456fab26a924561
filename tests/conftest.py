import dataclasses

import pytest

from dualpairs import symbols, uniform


@pytest.fixture
def clear_specials():
    """Forget every SpecialSymbol built so far, and the enumerations that hold them.

    Called once before the test, and returned for the test to call again.
    Later constructions build new objects, and enumerations list those same
    objects, so one value still has one object for every new caller.
    """

    def clear():
        for cache in (symbols._special, symbols.enumerate_special, symbols.specials_upto):
            cache.cache_clear()

    clear()
    return clear


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

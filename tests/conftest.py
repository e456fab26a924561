import dataclasses

import pytest

from dualpairs import relations, symbols, uniform


# taken at import, before any test patches the module attributes
RELATION_CACHES = (relations.relation_set, relations.cores)


@pytest.fixture(autouse=True)
def clear_relation_caches():
    """Start every test with empty relation_set and cores caches and no lane
    table, so no result computed under another test's patches, or in another
    order, reaches it."""
    for cache in RELATION_CACHES:
        cache.cache_clear()
    relations._TABLES.clear()


@pytest.fixture
def clear_specials():
    """Forget every SpecialSymbol built so far, and the enumerations and
    relation caches that hold them.

    Called once before the test, and returned for the test to call again.
    Later constructions build new objects, and enumerations list those same
    objects, so one value still has one object for every new caller.
    """

    def clear():
        symbols._SPECIALS.clear()
        for cache in (symbols.enumerate_special, symbols.specials_upto):
            cache.cache_clear()
        for cache in RELATION_CACHES:
            cache.cache_clear()
        relations._TABLES.clear()

    clear()
    return clear


@pytest.fixture
def planted_b_defect(monkeypatch):
    """Make uniform.relation_set and relations.b_and_d_rows drop the smallest
    pair of every nonempty B."""
    real, real_rows = uniform.relation_set, relations.b_and_d_rows

    def drop_smallest(Z, Zp, masks):
        smallest = min(
            masks,
            key=lambda p: (Z.member(p[0]).sort_key(), Zp.member(p[1]).sort_key()),
        )
        return masks - {smallest}

    def planted(Z, Zp, kind):
        rel = real(Z, Zp, kind)
        if kind == "D" or not rel.masks:
            return rel
        return dataclasses.replace(rel, masks=drop_smallest(Z, Zp, rel.masks))

    def planted_rows(Z, ranks, eps):
        b_rows, d_rows = real_rows(Z, ranks, eps)
        Zps = [Zp for r in ranks for Zp in symbols.enumerate_special(r, 0)]
        return [drop_smallest(Z, Zp, m) if m else m for Zp, m in zip(Zps, b_rows)], d_rows

    monkeypatch.setattr(uniform, "relation_set", planted)
    monkeypatch.setattr(relations, "b_and_d_rows", planted_rows)

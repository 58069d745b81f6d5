"""``_c`` is the only key-constraint check at the first aggregation layer
(DESIGN decision 2): it agrees with the Definition-4 matcher on every traced
group key, and the stats it lets ``collect_stats`` collapse stay the same
size as the data grows."""
import pytest

from repro.baselines import wnpp
from repro.core import algebra as A
from repro.core import msr
from repro.core import nip as N
from repro.core.alternatives import enumerate_sas
from repro.core.tracing import trace
from repro.workloads.registry import all_scenarios

# questions whose first aggregation layer has a key constraint
KEYED = ("D2", "T4", "Q4", "Q10")


def _question(spark, key, sf, dbs):
    s = all_scenarios()[key]
    if (s.group, sf) not in dbs:
        dbs[s.group, sf] = s.build_db(spark, sf)
    db = dbs[s.group, sf]
    query, _ = s.build_query()
    return query, db, s.whynot(db, query), s.alternatives()


@pytest.fixture(scope="module")
def dbs():
    return {}


@pytest.mark.parametrize("key", KEYED)
def test_c_agrees_with_matches_on_every_traced_key(spark, dbs, key):
    """Oracle: ``nip.matches`` on the layer's keys. For every SA, each
    distinct (keys, ``_c``) pair of the traced frame has ``_c = 1`` exactly
    when the keys match the layer's key NIP."""
    query, db, whynot, alts = _question(spark, key, 0.004, dbs)
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, alts)
    seen = set()
    for sa in sas:
        tr = trace(sa, sas[0].bt)
        layer0 = tr.layers[0]
        assert not layer0.key_nip.is_trivial()
        for row in schemas.frame(tr.query).select(*layer0.keys, "_c").distinct().collect():
            keys = {k: row[k] for k in layer0.keys}
            assert row["_c"] == int(N.matches(keys, layer0.key_nip)), (sa.sa_id, row)
            seen.add(row["_c"])
    assert seen == {0, 1}


@pytest.mark.parametrize("key", ("D2", "T4", "Q10"))
def test_stats_rows_do_not_grow_with_the_data(spark, dbs, key, monkeypatch):
    """The groups that fail the key constraint collapse into one per flag
    mask, so RPnoSA's and WN++'s stats have as many rows at SF 0.02 as at
    SF 0.004, where one row per distinct group key used to make them grow."""
    sizes, collect_stats = [], msr.collect_stats

    def counting(*args, **kw):
        stats = collect_stats(*args, **kw)
        sizes[-1].append(len(stats))
        return stats

    monkeypatch.setattr(msr, "collect_stats", counting)
    monkeypatch.setattr(wnpp, "collect_stats", counting)
    for sf in (0.004, 0.02):
        query, db, whynot, alts = _question(spark, key, sf, dbs)
        sizes.append([])
        msr.approximate_msrs(query, db, whynot, alts, with_sas=False)
        wnpp.wnpp(query, db, whynot)
    assert sizes[0] == sizes[1]
    assert len(sizes[0]) == 2

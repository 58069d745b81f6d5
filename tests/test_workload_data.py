"""Sanity tests for the synthetic workload generators and planted rows."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.workloads import crime, dblp, tpch, twitter

SF = 0.003


class TestTpchDb:
    @pytest.fixture(scope="class")
    def flat(self, spark):
        return tpch.db_flat(spark, SF)

    @pytest.fixture(scope="class")
    def nested(self, spark):
        return tpch.db_nested(spark, SF)

    def test_planted_q3_order(self, flat):
        o = flat["orders"].filter(F.col("o_orderkey") == tpch.Q3_ORDER).collect()
        assert len(o) == 1 and o[0]["o_custkey"] == 990001

    def test_planted_q3_customer_building(self, flat):
        c = flat["customer"].filter(F.col("c_custkey") == 990001).collect()
        assert c[0]["c_mktsegment"] == "BUILDING"

    def test_planted_q3_lineitems_fail_typo_filter(self, flat):
        li = flat["lineitem"].filter(F.col("l_orderkey") == tpch.Q3_ORDER)
        assert li.count() == 2
        assert li.filter(F.col("l_commitdate") > "1995-03-25").count() == 0
        assert li.filter(F.col("l_commitdate") > "1995-03-15").count() == 2

    def test_planted_q10_customer_has_returned_items(self, flat):
        li = (
            flat["lineitem"]
            .join(
                flat["orders"].filter(F.col("o_custkey") == tpch.Q10_CUST),
                F.col("l_orderkey") == F.col("o_orderkey"),
            )
            .filter(F.col("l_returnflag") == "R")
        )
        assert li.count() >= 2

    def test_q13_customer_has_no_orders(self, flat):
        n = flat["orders"].filter(F.col("o_custkey") == tpch.Q13_CUST).count()
        assert n == 0

    def test_every_other_order_has_lineitems(self, flat):
        uncovered = (
            flat["orders"]
            .join(
                flat["lineitem"],
                F.col("o_orderkey") == F.col("l_orderkey"),
                "left_anti",
            )
            .count()
        )
        assert uncovered == 0

    def test_nested_orders_structure(self, nested):
        row = (
            nested["nestedOrders"]
            .filter(F.col("o_orderkey") == tpch.Q3_ORDER)
            .collect()[0]
        )
        assert len(row["o_lineitems"]) == 2

    def test_nested_matches_flat_counts(self, spark, nested, flat):
        """Flattening the nested orders reproduces the flat join (oracle)."""
        flattened = (
            nested["nestedOrders"]
            .select("o_orderkey", F.explode("o_lineitems").alias("li"))
            .select("o_orderkey", "li.l_partkey", "li.l_quantity")
        )
        assert_equivalent(
            flattened,
            "SELECT o_orderkey, l_partkey, l_quantity FROM o "
            "JOIN l ON o_orderkey = l_orderkey",
            o=flat["orders"], l=flat["lineitem"],
        )

    def test_nation_covers_custkeys(self, flat):
        assert flat["nation"].count() == 25

    def test_nation_types_and_values(self, flat):
        nation = flat["nation"]
        assert nation.dtypes == [("n_nationkey", "int"), ("n_name", "string")]
        rows = sorted(tuple(r) for r in nation.collect())
        assert rows == [(i, f"NATION_{i}") for i in range(25)]


class TestDblpDb:
    @pytest.fixture(scope="class")
    def db(self, spark):
        return dblp.db(spark, SF)

    def test_d1_paper_planted(self, db):
        r = db["pubs"].filter(F.col("title.text.value") == dblp.D1_TITLE).collect()
        assert len(r) == 1 and r[0]["booktitle"] == "SIGMOD"

    def test_d2_ada_has_six_null_bibtex_papers(self, db):
        rows = db["pubs"].filter(F.col("author.pname") == dblp.D2_AUTHOR).collect()
        assert len(rows) == 6
        assert all(r["title"]["bibtex"]["value"] is None for r in rows)
        assert all(r["title"]["text"]["value"] is not None for r in rows)

    def test_d2_bibtex_mostly_null(self, db):
        total = db["pubs"].count()
        nonnull = db["pubs"].filter(F.col("title.bibtex.value").isNotNull()).count()
        assert nonnull / total < 0.05

    def test_d3_erhard_is_editor_not_author(self, db):
        assert db["pubs"].filter(F.col("editor.pname") == dblp.D3_EDITOR).count() == 1
        assert db["pubs"].filter(F.col("author.pname") == dblp.D3_EDITOR).count() == 0

    def test_d5_tim_has_note_homepage(self, db):
        r = db["www"].filter(F.col("wauthor") == dblp.D5_AUTHOR).collect()[0]
        assert r["sites"] == [] and r["note"].startswith("http://")


class TestTwitterDb:
    @pytest.fixture(scope="class")
    def db(self, spark):
        return twitter.db(spark, SF)

    def test_t1_media_only_extended(self, db):
        r = db["tweets"].filter(F.col("tid") == twitter.T1_TWEET).collect()[0]
        assert r["entities"]["media"] == []
        assert len(r["extended_entities"]["media"]) == 1

    def test_t2_fan_two_tweets(self, db):
        rows = db["tweets"].filter(F.col("user.name") == twitter.T2_USER).collect()
        assert len(rows) == 2
        assert all(r["place"]["country"] is None for r in rows)

    def test_tasd_three_retweet_captures(self, db):
        rows = db["tweets"].filter(
            F.col("retweeted_status.rid") == twitter.TASD_TWEET
        ).collect()
        assert len(rows) == 3
        assert all(r["quoted_status"] is None for r in rows)
        assert any(r["retweeted_status"]["rcount"] == 0 for r in rows)

    def test_mentions_contains_target(self, db):
        assert db["mentions"].filter(F.col("mname") == twitter.T3_USER).count() == 1


class TestCrimeDb:
    def test_roger_has_no_blue_hair(self, spark):
        db = crime.db(spark)
        r = db["P"].filter(F.col("pname") == "Roger").collect()[0]
        assert r["hair"] != "blue"

    def test_no_witness_named_susan(self, spark):
        db = crime.db(spark)
        assert db["W"].filter(F.col("wname") == "Susan").count() == 0

    def test_c3_ashishbakshi_sighting_snow_in_clothes(self, spark):
        db = crime.db(spark)
        r = db["S"].filter(F.col("switness") == "Ashishbakshi").collect()[0]
        assert r["sclothes"] == "snow" and r["shair"] != "snow"

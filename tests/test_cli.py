import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trdom.audit import CLAIMS, run_audit
from trdom.cli import main
from trdom.formulas import UPPER
from trdom.graphs import FAMILY_DIMS
from trdom.reception import render_reception
from trdom import (BlockDims, DominationError, GammaResult, GraphFamily, PlacementPlan,
                   TowerSet,
                   cycle_towers, cycle_upper_bound, family_from_json, grid3d_2_2_k_gamma,
                   grid3d_cover, grid3d_upper_bound, grid_gamma, grid_graph, grid_towers,
                   king_gamma, king_towers, path_gamma, path_graph, path_towers,
                   slant_gamma_2xn, slant_tile_cover, slant_towers_2xn, slant_upper_bound)


REFERENCE_ROWS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                              "paper_reference.json")
AUDIT_FIELDS = ("instance", "t", "r", "theorem_tag", "kind", "formula",
                "constructed", "oracle", "status")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGamma:
    def test_path_formula(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--family", "path", "--n", "9",
                               "--t", "3", "--r", "1")
        assert code == 0
        assert "gamma = 2" in out

    def test_grid_exact_match(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--family", "grid", "--m", "2",
                               "--n", "3", "--t", "2", "--r", "1", "--exact")
        assert code == 0
        assert "match" in out

    def test_grid_exact_mismatch_exits_3(self, capsys):
        # A documented discrepancy: the stated formula over-counts here.
        code, out, _ = run_cli(capsys, "gamma", "--family", "grid", "--m", "2",
                               "--n", "6", "--t", "3", "--r", "1", "--exact")
        assert code == 3
        assert "MISMATCH" in out

    def test_king_hypothesis_violation(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--family", "king", "--m", "5",
                               "--n", "4", "--t", "2", "--r", "1")
        assert code == 1
        assert "2(t - r) + 1" in err

    def test_tree_bound_with_decomposition(self, capsys):
        code, out, _ = run_cli(
            capsys, "gamma", "--family", "tree",
            "--edges", "[[1,2],[2,3],[3,4],[4,5],[5,6],[6,7]]",
            "--decomposition", "[[1,2,3,4,5,6,7]]", "--t", "2", "--r", "1")
        assert code == 0
        assert "gamma <= 3" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--family", "path", "--n", "9",
                               "--t", "3", "--r", "1", "--json")
        data = json.loads(out)
        assert data["result"]["value"] == 2
        assert data["result"]["theorem_tag"] == "Thm1.1"
        assert data["version"]


class TestConstructVerifyRoundTrip:
    def test_construct_king(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "king", "--m", "3",
                               "--n", "6", "--t", "2", "--r", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["plan"]["towers"] == [[2, 2], [2, 5]]
        assert data["verification"]["dominated"] is True

    @pytest.mark.parametrize(
        "kind, dims, claim, plan",
        [
            ("path", ["--n", "9"], lambda: path_gamma(9, 2, 1), lambda: path_towers(9, 2, 1)),
            ("cycle", ["--n", "9"], lambda: cycle_upper_bound(9, 2, 1),
             lambda: cycle_towers(9, 2, 1)),
            ("grid", ["--m", "3", "--n", "7"], lambda: grid_gamma(3, 7, 2, 1),
             lambda: grid_towers(3, 7, 2, 1)),
            ("grid3d", ["--m", "2", "--n", "2", "--k", "4"], lambda: grid3d_2_2_k_gamma(4),
             lambda: grid3d_cover(2, 2, 4, 2, 1, BlockDims((2, 2, 2), theorem_tag="Thm4.4"))),
            ("grid3d", ["--m", "2", "--n", "3", "--k", "4"],
             lambda: grid3d_upper_bound(2, 3, 4, 2, 1, BlockDims((1, 2, 3), theorem_tag="Thm4.4")),
             lambda: grid3d_cover(2, 3, 4, 2, 1, BlockDims((1, 2, 3), theorem_tag="Thm4.4"))),
            ("slant", ["--m", "2", "--n", "8"], lambda: slant_gamma_2xn(8, 2, 1),
             lambda: slant_towers_2xn(8, 2, 1)),
            ("slant", ["--m", "4", "--n", "9"], lambda: slant_upper_bound(4, 9, 2, 1),
             lambda: slant_tile_cover(4, 9, 2, 1)),
            ("king", ["--m", "3", "--n", "6"], lambda: king_gamma(3, 6, 2, 1),
             lambda: king_towers(3, 6, 2, 1)),
        ],
        ids=["path", "cycle", "grid", "grid3d-2x2xk", "grid3d", "slant-2xn", "slant", "king"],
    )
    def test_cli_gives_the_family_claim_and_construction(self, capsys, kind, dims, claim, plan):
        argv = ["--family", kind, *dims, "--t", "2", "--r", "1", "--json"]
        code, out, _ = run_cli(capsys, "gamma", *argv)
        assert code == 0
        assert json.loads(out)["result"] == claim().to_json()
        code, out, _ = run_cli(capsys, "construct", *argv)
        assert code == 0
        assert json.loads(out)["plan"] == plan().to_json()

    def test_registry_covers_every_family(self):
        assert set(CLAIMS) == set(FAMILY_DIMS) - {"tree"}

    def test_verify_consumes_construct_output_unchanged(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "construct", "--family", "slant", "--m", "2",
                               "--n", "8", "--t", "2", "--r", "1", "--json")
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(out)  # the whole construct output, untouched
        code, out, _ = run_cli(capsys, "verify", "--plan", str(plan_file),
                               "--require-dominated", "--json")
        assert code == 0
        assert json.loads(out)["report"]["dominated"] is True

    def test_verify_accepts_bare_plan_too(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "construct", "--family", "grid", "--m", "3",
                               "--n", "7", "--t", "3", "--r", "1", "--json")
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(json.loads(out)["plan"]))
        code, out, _ = run_cli(capsys, "verify", "--plan", str(plan_file), "--json")
        assert code == 0
        assert json.loads(out)["report"]["dominated"] is True

    def test_verify_failure_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "path", "--n", "5",
                               "--towers", '{"t": 2, "towers": [3]}', "--r", "1",
                               "--require-dominated")
        assert code == 2
        assert "dominated=False" in out

    def test_verify_inline_graph_and_towers(self, capsys):
        code, out, _ = run_cli(capsys, "verify",
                               "--graph", '{"family":"grid","m":2,"n":3}',
                               "--towers", "[[1,1],[2,3]]", "--t", "2", "--r", "1",
                               "--json")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["dominated"] and report["efficient"]

    def test_verify_tower_far_stronger_than_the_board(self, capsys):
        code, out, _ = run_cli(capsys, "verify",
                               "--graph", '{"family":"grid","m":3,"n":300}',
                               "--towers", "[[2,150]]", "--t", "100000000", "--r", "1",
                               "--json")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["dominated"] and report["min_reception"] == 100000000 - 151


class TestExact:
    def test_exact_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--family", "king", "--m", "3",
                               "--n", "6", "--t", "2", "--r", "1", "--json")
        assert code == 0
        data = json.loads(out)["oracle"]
        assert data["gamma"] == 2
        assert data["proven_minimal"] is True
        assert data["canonical"] is True
        stats = data["stats"]
        assert sum(p["nodes"] for p in stats["phases"].values()) == data["explored_nodes"]
        assert stats["lower_bound"] <= 2 <= stats["upper_bound"]
        assert stats["budget_exhausted_in"] is None

    def test_exact_human_text_reports_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--family", "grid", "--m", "3",
                               "--n", "3", "--t", "2", "--r", "1", "--no-canonical")
        assert code == 0
        assert "canonical: false" in out

    def test_gamma_exact_json_carries_stats(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--family", "grid", "--m", "3",
                               "--n", "3", "--t", "2", "--r", "1", "--exact", "--json")
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["canonical"] is True
        assert [level["k"] for level in oracle["stats"]["levels"]][-1] == oracle["gamma"]

    def test_size_guard(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--family", "grid", "--m", "8",
                               "--n", "8", "--t", "2", "--r", "1")
        assert code == 1
        assert "--allow-large" in err


class TestLattice:
    def test_king_t1_window(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--kind", "king-t1", "--t", "2",
                               "--r", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["window_report"]["dominated"] is True
        assert data["window_report"]["efficient"] is True
        assert [3, 0] in data["basis"]

    def test_triangular_coords(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--kind", "triangular", "--t", "2",
                               "--r", "1", "--halfwidth", "8", "--json")
        assert code == 0
        data = json.loads(out)
        assert [0, 0] in data["towers_in_window"]

    def test_zero_halfwidth_is_too_small(self, capsys):
        # 0 is a given halfwidth, not a request for the 4t default.
        code, out, err = run_cli(capsys, "lattice", "--kind", "king-t1", "--t", "2",
                                 "--r", "1", "--halfwidth", "0", "--json")
        assert code == 1
        assert out == ""
        assert "window halfwidth 0 < 3t = 6" in err

    def test_triangular_t1_window_has_every_vertex(self, capsys):
        # At (t, r) = (1, 1) the pattern is the whole lattice; towers whose
        # generator index is twice their coordinate must not be missed.
        code, out, _ = run_cli(capsys, "lattice", "--kind", "triangular", "--t", "1",
                               "--r", "1", "--halfwidth", "9", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["towers_in_window"]) == 19 * 19
        assert data["window_report"]["dominated"] is True


class TestTable:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--preset", "slant", "--t", "2",
                               "--r", "1", "--p", "1", "--q", "1")
        assert code == 0
        assert "bound 5" in out

    def test_all_rows_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--all-rows", "--p", "1", "--q", "1",
                               "--json")
        data = json.loads(out)
        bounds = {(row["t"], row["r"]): row["bound"] for row in data["rows"]}
        assert bounds == {(2, 1): 5, (3, 1): 8, (3, 2): 7, (4, 2): 15,
                          (4, 3): 9, (5, 4): 11}

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "table")
        assert code == 1


class TestRender:
    def test_grid_block_2x3(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--family", "grid", "--m", "2",
                               "--n", "3", "--towers", "[[1,1],[2,3]]", "--t", "2")
        assert code == 0
        assert out.splitlines()[:2] == ["T11", "11T"]

    def test_tower_far_stronger_than_the_board(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--family", "slant", "--m", "3", "--n", "3",
                               "--towers", "[[2,2]]", "--t", "100000000")
        assert code == 0
        assert out.splitlines() == ["+++", "+T+", "+++"]

    def test_render_function_values(self):
        g = grid_graph(2, 3)
        text = render_reception(g, TowerSet(((1, 1), (2, 3)), 2))
        assert text == "T11\n11T"
        # Without tower markers the corners carry reception 2.
        text = render_reception(g, TowerSet(((1, 1),), 11))
        assert text.splitlines()[0].startswith("T")
        assert "+" in text  # reception above 9 renders as +

    def test_column_windowing(self):
        g = path_graph(100)
        text = render_reception(g, TowerSet((50,), 2), col_start=49, max_cols=4)
        assert text == "1T10"

    @pytest.mark.parametrize("window", [["--col-start", "-2"], ["--max-cols", "0"]],
                             ids=["col-start", "max-cols"])
    def test_bad_column_window_exits_1(self, capsys, window):
        code, out, err = run_cli(capsys, "render", "--family", "grid", "--m", "2", "--n", "3",
                                 "--towers", "[[1,1]]", "--t", "2", *window)
        assert code == 1
        assert out == ""
        assert "column window needs col_start >= 1 and max_cols >= 1" in err


class TestAudit:
    def test_paths_suite_clean(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--suite", "paths",
                               "--n-max", "6", "--t-max", "2")
        assert code == 0
        assert "0 mismatch(es)" in out

    def test_grid3d_suite_reports_documented_mismatch(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--suite", "grid3d", "--json")
        assert code == 3
        data = json.loads(out)
        mismatched = [row for row in data["rows"] if row["status"] == "MISMATCH"]
        assert [row["instance"] for row in mismatched] == ["grid3d(2, 2, 1)"]
        gaps = [row for row in data["rows"] if row["status"].startswith("bound-gap")]
        assert any(row["instance"] == "grid3d(2, 2, 5)" for row in gaps)

    def test_empty_audit_writes_csv_header_only(self, capsys, tmp_path):
        csv_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "audit", "--suite", "paths", "--n-max", "0",
                               "--csv", str(csv_file))
        assert code == 0
        assert "0 rows, 0 mismatch(es)" in out
        assert csv_file.read_text().splitlines() == [
            "instance,t,r,theorem_tag,kind,formula,constructed,oracle,status,note"]

    @pytest.mark.parametrize("flags, limit", [((), 30), (("--max-oracle-vertices", "12"), 12),
                                              (("--allow-large",), 10**9)])
    def test_json_reports_the_oracle_limit_in_force(self, capsys, flags, limit):
        code, out, _ = run_cli(capsys, "audit", "--suite", "paths", "--n-max", "4",
                               "--t-max", "2", "--json", *flags)
        assert code == 0
        assert json.loads(out)["params"]["max_oracle_vertices"] == limit

    @pytest.mark.parametrize("suite", ["paths", "grids", "grid3d", "king", "slant", "all"])
    def test_suite_matches_recorded_reference(self, capsys, suite):
        # Rows recorded by perfbench/record_reference.py; the 13 Thm1.2 and
        # 1 Thm4.1 MISMATCH rows are known defects and must stay visible.
        # ``all`` is every recorded suite's rows, sorted as the audit sorts.
        with open(REFERENCE_ROWS) as handle:
            recorded = json.load(handle)
        expected = (sorted((row for rows in recorded.values() for row in rows),
                           key=lambda row: row[:4])
                    if suite == "all" else recorded[suite])
        code, out, _ = run_cli(capsys, "audit", "--suite", suite, "--json")
        rows = [[row[name] for name in AUDIT_FIELDS] for row in json.loads(out)["rows"]]
        assert rows == expected
        assert code == (3 if any(row[-1] == "MISMATCH" for row in expected) else 0)

    def test_construction_is_held_to_an_upper_bound(self, monkeypatch):
        # An upper-bound claim's construction must stay within the bound:
        # path(n) at t = 1 needs n towers, so n > 1 exceeds a bound of 1.
        monkeypatch.setitem(CLAIMS, "path", (lambda n, t, r: GammaResult(1, UPPER, "probe"),
                                             CLAIMS["path"][1]))
        rows = run_audit("paths", n_max=3, t_max=1, oracle_limit=0)
        assert [(row.instance, row.constructed, row.status) for row in rows] == [
            ("path(1)", 1, "oracle-skipped"), ("path(2)", 2, "MISMATCH"),
            ("path(3)", 3, "MISMATCH")]
        assert all("exceeds bound" in row.note for row in rows[1:])


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--family", "path", "--n", "9"])  # missing --t/--r
    assert exc.value.code == 1


def test_unknown_family_spec(capsys):
    code, _, err = run_cli(capsys, "gamma", "--family", "path", "--t", "2", "--r", "1")
    assert code == 1
    assert "--n" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--graph", '{"family":"grid","m":"x","n":3}',
          "--towers", "[[1,1]]", "--t", "2"],
         "grid dimension m must be an integer"),
        (["verify", "--graph", '{"family":"grid","m":2,"n":3}',
          "--towers", '[[1,"a"]]', "--t", "2"],
         "vertex coordinate must be an integer"),
        (["verify", "--graph", '{"family":"path","n":5}', "--towers", '[{"v":1}]', "--t", "2"],
         "vertex must be an integer"),
        (["verify", "--graph", '{"family":"path","n":5}', "--towers", '{"t":"two","towers":[3]}'],
         "tower strength t must be an integer"),
        (["verify", "--graph", '{"family":"path","n":5}', "--towers", '{"t":2,"towers":3}'],
         "'towers' must be a list"),
        (["verify", "--graph", '{"family":"tree","edges":[[1,"b"]]}',
          "--towers", "[1]", "--t", "2"],
         "tree edges must be integer pairs"),
        (["verify", "--graph", '{"family":["grid"]}', "--towers", "[1]", "--t", "2"],
         "unknown family"),
        (["gamma", "--family", "tree", "--edges", "[[1,2],[2,3]]", "--t", "2",
          "--decomposition", '[["a","b"]]'],
         "decomposition vertex must be an integer"),
        (["gamma", "--family", "tree", "--edges", "[[1,2],[2,3]]", "--t", "2",
          "--decomposition", "[1]"],
         "part 1 is not a list of vertices"),
        (["gamma", "--family", "tree", "--edges", "[[1,2],[2,3]]", "--t", "2",
          "--decomposition", '{"parts":[[1,2,3]]}'],
         "is not a list of parts"),
    ],
    ids=["dimension", "coordinate", "vertex", "strength", "tower-list", "tree-edge", "family",
         "decomposition-vertex", "decomposition-part", "decomposition"],
)
def test_bad_json_exits_1_with_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--r", "1")
    assert code == 1
    assert out == ""
    assert message in err


def test_bad_plan_json_exits_1_with_message(capsys, tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"graph": {"family": "path", "n": 5},
                                     "towers": [3], "t": 2, "r": "one"}))
    code, _, err = run_cli(capsys, "verify", "--plan", str(plan_file))
    assert code == 1
    assert "plan requirement r must be an integer" in err


_JSON_KEYS = st.sampled_from(["family", "m", "n", "k", "edges", "towers", "t", "r", "graph"])
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=2)
                | st.sampled_from(["grid", "tree", "path", "king", "3"]))
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_JSON_KEYS, kids, max_size=5),
    max_leaves=12,
)


@given(data=_JSON)
@settings(max_examples=300, deadline=None)
def test_json_readers_raise_only_domination_errors(data):
    for reader in (family_from_json, TowerSet.from_json, PlacementPlan.from_json):
        try:
            value = reader(data)
        except DominationError:
            continue
        assert isinstance(value, (GraphFamily, TowerSet, PlacementPlan))

"""Semantics of the record classes, and what ``import trdom.cli`` loads."""

import csv
import json
import os
import subprocess
import sys

import pytest

from trdom import (BlockDims, DominationError, GraphFamily, OracleResult, ReceptionMap,
                   SolverConfig, TowerSet, king_lattice_pattern, path_gamma, path_graph,
                   path_towers, solve, verify)
from trdom.audit import ROW_FIELDS, ComparisonRow, finish_row, run_audit
from trdom.cli import main
from trdom.formulas import SLANT_TILE_ROWS

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _frozen_records():
    """Each record class that is frozen, as (a record, one of its fields)."""
    return {
        "GraphFamily": (GraphFamily.path(3), "kind"),
        "TowerSet": (TowerSet((1,), 2), "towers"),
        "ReceptionMap": (ReceptionMap({1: 2}, 2), "reception"),
        "VerificationReport": (verify(path_graph(3), TowerSet((2,), 2), 1), "dominated"),
        "GammaResult": (path_gamma(9, 3, 1), "value"),
        "BlockDims": (BlockDims((2, 3)), "dims"),
        "SlantTileRow": (SLANT_TILE_ROWS[(2, 1)], "height"),
        "PlacementPlan": (path_towers(9, 3, 1), "towers"),
        "LatticePattern": (king_lattice_pattern(3, 1), "kind"),
        "SolverConfig": (SolverConfig(), "max_cardinality"),
        "OracleResult": (solve(path_graph(5), 2, 1), "gamma"),
    }


@pytest.mark.parametrize("name", sorted(_frozen_records()))
def test_frozen_record_rejects_assignment(name):
    record, field = _frozen_records()[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_mutable_records_stay_mutable_and_unhashable():
    g = path_graph(3)
    g.family = GraphFamily.path(4)
    row = ComparisonRow("path(3)", 2, 1, "Thm1.1", "exact-formula", 1, oracle=1)
    assert finish_row(row).status == "match"
    for record in (g, row):
        with pytest.raises(TypeError):
            hash(record)
    assert row == ComparisonRow("path(3)", 2, 1, "Thm1.1", "exact-formula", 1, oracle=1,
                                status="match")
    assert path_graph(3) == path_graph(3) != path_graph(4)


def test_oracle_result_equality_ignores_stats():
    witness = TowerSet((2,), 2)
    a = OracleResult(1, witness, 5, True, True, stats={"phases": {}})
    b = OracleResult(1, witness, 5, True, True)
    assert a == b and hash(a) == hash(b)
    assert a != OracleResult(1, witness, 6, True, True)
    assert a.stats == {"phases": {}} and b.stats is None and b.canonical


def test_tower_set_coerces_and_validates():
    ts = TowerSet([3, 1], 2)
    assert ts.towers == (3, 1) and ts.t == 2 and len(ts) == 2
    assert ts == TowerSet((3, 1), 2) and hash(ts) == hash(TowerSet((3, 1), 2))
    assert ts != TowerSet((1, 3), 2)
    with pytest.raises(DominationError, match="duplicates"):
        TowerSet([1, 1], 2)
    for t in (0, -1):
        with pytest.raises(DominationError, match="positive"):
            TowerSet([1], t)


@pytest.mark.parametrize("caps", [{"max_cardinality": 0}, {"max_cardinality": -2},
                                  {"node_budget": 0}, {"node_budget": -1}])
def test_solver_config_rejects_non_positive_caps(caps):
    with pytest.raises(DominationError, match="must be positive"):
        SolverConfig(**caps)


def test_solver_config_defaults_and_equality():
    cfg = SolverConfig()
    assert (cfg.max_cardinality, cfg.canonical_witness, cfg.node_budget) == (None, True, None)
    assert SolverConfig(node_budget=5) == SolverConfig(None, True, 5)
    assert hash(SolverConfig(node_budget=5)) == hash(SolverConfig(None, True, 5))


def test_graph_family_equal_and_hashed_by_value():
    a, b = GraphFamily.grid(2, 3), GraphFamily("grid", (2, 3))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != GraphFamily.grid(3, 2)
    assert len({a, b, GraphFamily.tree([(1, 2)])}) == 2
    assert GraphFamily.tree([[1, 2]]).edges == ((1, 2),)


def test_placement_plan_length_and_round_trip():
    plan = path_towers(9, 3, 1)
    assert len(plan) == len(plan.towers.towers) == 2
    assert type(plan).from_json(plan.to_json()) == plan


def test_audit_csv_header_matches_json_row_keys(capsys, tmp_path):
    csv_file = tmp_path / "rows.csv"
    code = main(["audit", "--suite", "paths", "--n-max", "3", "--t-max", "2", "--json",
                 "--csv", str(csv_file)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)["rows"]  # printed with sorted keys
    with open(csv_file, newline="") as handle:
        header = next(csv.reader(handle))
    rows = run_audit("paths", n_max=3, t_max=2)
    assert rows and all(list(row.to_json()) == header for row in rows)
    assert all(sorted(row) == sorted(header) for row in printed)
    assert tuple(header) == ROW_FIELDS


def test_cli_import_loads_every_module_and_no_dataclasses():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import trdom.cli; "
             "print(*sorted(sys.modules), sep='\\n')")
    done = subprocess.run([sys.executable, "-I", "-c", probe, SRC],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    package = os.path.join(SRC, "trdom")
    modules = {"trdom." + name[:-3] for name in os.listdir(package)
               if name.endswith(".py") and name != "__init__.py"}
    assert modules and modules <= loaded

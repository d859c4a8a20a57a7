"""Case parsing, geolocation ingestion, and network invariants."""

import tracemalloc
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest

from nkshed import fixtures as fx
from nkshed import netmodel
from nkshed.netmodel import (AttackerModel, Bus, CaseFormatError, GeoFormatError, Line,
                             Network, _islands, parse_case, parse_geo,
                             serialize_case, total_load)
from nkshed.oracle import attack_table
from bench_lattice import _lattice, spurs
from test_two_islands import two_meshes

TWO_BUS_CASE = """function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
1 3 0 0 0 0 1 1.00 0 110 1 1.05 0.95;
2 1 100 5 0 0 1 1.00 0 110 1 1.05 0.95;
];
mpc.gen = [
1 0 0 10 -10 1.00 100 1 100 0;
];
mpc.branch = [
1 2 0.01 0.1 0 100 100 100 0 0 1 -360 360;
];
"""


def test_parse_two_bus_case():
    net = parse_case(TWO_BUS_CASE)
    assert len(net.buses) == 2
    assert len(net.lines) == 1
    line = net.lines[0]
    assert line.susceptance == pytest.approx(10.0)
    assert line.thermal == pytest.approx(1.0)
    assert net.buses[net.bus_pos[2]].demand == pytest.approx(1.0)
    assert net.buses[net.bus_pos[1]].gen_cap == pytest.approx(1.0)
    assert total_load(net) == pytest.approx(1.0)


def test_out_of_service_branch_dropped():
    net = parse_case(TWO_BUS_CASE.replace("0 0 1 -360 360", "0 0 0 -360 360"))
    assert len(net.lines) == 0


def test_zero_reactance_rejected():
    with pytest.raises(CaseFormatError, match="non-positive reactance"):
        parse_case(TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 2 0.01 0.0"))


def test_a_reactance_the_lp_would_drop_is_rejected():
    # Its susceptance, 1e-9, is a matrix coefficient HiGHS drops.
    with pytest.raises(CaseFormatError, match=r"^line 12: .*reactance 1000000000.0 too large"):
        parse_case(TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 2 0.01 1e9"))
    with pytest.raises(ValueError, match="too large"):
        Line(1, 1, 2, 1e9, 1.0)
    assert parse_case(TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 2 0.01 1e8")).lines[0].reactance == 1e8


def test_parsing_builds_no_buses_by_lines_array():
    text = _lattice.lattice_text(40, 40, 1)[0]
    tracemalloc.start()
    try:
        net = parse_case(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1 600 buses and 3 120 lines: a dense float array of that shape is 40 MB.
    assert (len(net.buses), len(net.lines)) == (1600, 3120)
    assert peak < 16 * 2**20, peak


def test_malformed_row_reports_line_and_field():
    bad = TWO_BUS_CASE.replace("2 1 100 5", "2 1 oops 5")
    with pytest.raises(CaseFormatError, match=r"line 6.*field 3"):
        parse_case(bad)


@pytest.mark.parametrize("old, new", [
    ("2 1 100 5", "2 1 nan 5"),
    ("100 1 100 0;", "100 1 inf 0;"),
    ("1 2 0.01 0.1 0 100", "1 2 0.01 0.1 0 nan"),
    ("1 2 0.01 0.1", "1 2 0.01 inf"),
    ("baseMVA = 100", "baseMVA = nan"),
], ids=["Pd", "Pmax", "rateA", "x", "baseMVA"])
def test_non_finite_case_values_rejected(old, new):
    assert old in TWO_BUS_CASE
    with pytest.raises(CaseFormatError, match="finite"):
        parse_case(TWO_BUS_CASE.replace(old, new))


# An id field holding a fractional or non-finite value, and a non-finite
# branch status: (old, new text, file line, table, field).
BAD_IDS = [pytest.param(old, old.replace(f, v, 1), lineno, table, field, id=f"{table}{field}-{v}")
           for old, f, lineno, table, field in (("2 1 100 5", "2", 6, "bus", 1),
                                                ("1 0 0 10 -10", "1", 9, "gen", 1),
                                                ("1 2 0.01 0.1", "1", 12, "branch", 1),
                                                ("2 0.01 0.1", "2", 12, "branch", 2))
           for v in ("2.4", "inf", "nan")]
BAD_IDS += [pytest.param("0 0 1 -360", f"0 0 {v} -360", 12, "branch", 11, id=f"status-{v}")
            for v in ("inf", "nan")]


@pytest.mark.parametrize("old, new, lineno, table, field", BAD_IDS)
def test_an_id_must_be_a_finite_integer(old, new, lineno, table, field):
    # int(round(...)) raised OverflowError on inf, a bare ValueError on nan,
    # and read bus 2.4 as bus 2.
    assert TWO_BUS_CASE.count(old) == 1
    with pytest.raises(CaseFormatError, match=rf"^line {lineno}: {table} field {field} must be "):
        parse_case(TWO_BUS_CASE.replace(old, new))


def test_a_case_without_a_bus_or_branch_table_is_rejected():
    head, _, _ = TWO_BUS_CASE.partition("mpc.gen")
    with pytest.raises(CaseFormatError, match="^case has no branch table$"):
        parse_case(head)
    rows = "1 3 0 0 0 0 1 1.00 0 110 1 1.05 0.95;\n2 1 100 5 0 0 1 1.00 0 110 1 1.05 0.95;\n"
    assert rows in TWO_BUS_CASE
    for text in (TWO_BUS_CASE.replace("mpc.bus", "mpc.buses"), TWO_BUS_CASE.replace(rows, "")):
        with pytest.raises(CaseFormatError, match="^case has no bus table$"):
            parse_case(text)


def test_a_short_row_names_its_line_and_a_text_scalar_is_ignored():
    with pytest.raises(CaseFormatError, match=r"^line 9: malformed gen row, expected at least "
                                              r"9 fields, got 5$"):
        parse_case(TWO_BUS_CASE.replace("1 0 0 10 -10 1.00 100 1 100 0", "1 0 0 10 -10"))
    net = parse_case(TWO_BUS_CASE.replace("mpc.version = '2';", "mpc.version = 'two';"))
    assert net == parse_case(TWO_BUS_CASE)


def test_branch_unknown_bus_rejected():
    with pytest.raises(CaseFormatError, match="unknown bus"):
        parse_case(TWO_BUS_CASE.replace("1 2 0.01", "1 9 0.01"))


def test_duplicate_bus_id_rejected():
    dup = TWO_BUS_CASE.replace("2 1 100 5 0 0 1 1.00 0 110 1 1.05 0.95;",
                               "2 1 100 5 0 0 1 1.00 0 110 1 1.05 0.95;\n"
                               "2 1 50 5 0 0 1 1.00 0 110 1 1.05 0.95;")
    with pytest.raises(CaseFormatError, match="duplicate bus id"):
        parse_case(dup)


def test_duplicate_line_id_rejected():
    # Two lines under one id would share one position: pricing every attack
    # by id would price one line twice and the other never.
    buses = [Bus(1, 0.0, 2.0), Bus(2, 1.0), Bus(3, 0.5)]
    with pytest.raises(ValueError, match="duplicate line id"):
        Network(buses, [Line(1, 1, 2, 0.1, 1.0), Line(1, 2, 3, 0.1, 1.0),
                        Line(2, 1, 3, 0.1, 1.0)])
    with pytest.raises(ValueError, match="duplicate bus id"):
        Network(buses + [Bus(3, 0.0)], [Line(1, 1, 2, 0.1, 1.0)])


UNLIMITED = ("0.1 0 100 100 100", "0.1 0 0 100 100")   # rateA 100 MW -> 0


def test_rate_a_zero_maps_to_big_m():
    net = parse_case(TWO_BUS_CASE.replace(*UNLIMITED))
    assert net.lines[0].thermal == total_load(net) == 1.0


def test_rate_a_zero_maps_to_one_without_demand():
    net = parse_case(TWO_BUS_CASE.replace(*UNLIMITED).replace("2 1 100 5", "2 1 0 5"))
    assert total_load(net) == 0.0
    assert net.lines[0].thermal == 1.0


def test_negative_demand_is_clamped_to_zero():
    # A bus at -50 MW parses as a bus at 0 MW, and the unlimited rating
    # follows the clamped total (1.0 p.u., not 0.5).
    case = TWO_BUS_CASE.replace(*UNLIMITED)
    negative = parse_case(case.replace("1 3 0 0", "1 3 -50 0"))
    assert negative == parse_case(case)
    assert negative.buses[negative.bus_pos[1]].demand == 0.0
    assert negative.lines[0].thermal == total_load(negative) == 1.0


def test_multiple_generators_aggregate():
    case = TWO_BUS_CASE.replace(
        "1 0 0 10 -10 1.00 100 1 100 0;",
        "1 0 0 10 -10 1.00 100 1 100 0;\n1 0 0 10 -10 1.00 100 1 40 0;")
    net = parse_case(case)
    assert net.buses[net.bus_pos[1]].gen_cap == pytest.approx(1.4)


def test_out_of_service_generator_adds_no_capacity():
    # An 80 MW unit in service and a 40 MW unit at status 0 on one bus: the
    # bus has 0.8 p.u., exactly as if the status-0 row were not there.
    unit = "1 0 0 10 -10 1.00 100 1 80 0;"
    case = TWO_BUS_CASE.replace("1 0 0 10 -10 1.00 100 1 100 0;", unit)
    off = case.replace(unit, unit + "\n1 0 0 10 -10 1.00 100 0 40 0;")
    assert parse_case(off) == parse_case(case)
    assert parse_case(off).buses[0].gen_cap == pytest.approx(0.8)
    # The bus of a status-0 row must still exist.
    with pytest.raises(CaseFormatError, match="unknown bus"):
        parse_case(case.replace(unit, unit + "\n9 0 0 10 -10 1.00 100 0 40 0;"))


def test_a_negative_generator_capacity_names_its_line():
    # Pmax -80 MW on an in-service unit is a file error at its line; on an
    # out-of-service unit it is ignored, like the rest of that row.
    unit = "1 0 0 10 -10 1.00 100 1 100 0;"
    with pytest.raises(CaseFormatError, match=r"^line 9: gen Pmax must be >= 0, got -80.0$"):
        parse_case(TWO_BUS_CASE.replace(unit, "1 0 0 10 -10 1.00 100 1 -80 0;"))
    off = TWO_BUS_CASE.replace(unit, unit + "\n1 0 0 10 -10 1.00 100 0 -80 0;")
    assert parse_case(off) == parse_case(TWO_BUS_CASE)


def test_parallel_branches_kept_distinct():
    case = TWO_BUS_CASE.replace(
        "1 2 0.01 0.1 0 100 100 100 0 0 1 -360 360;",
        "1 2 0.01 0.1 0 100 100 100 0 0 1 -360 360;\n"
        "1 2 0.01 0.2 0 50 100 100 0 0 1 -360 360;")
    net = parse_case(case)
    assert len(net.lines) == 2
    assert net.lines[0].id != net.lines[1].id
    assert {l.reactance for l in net.lines} == {0.1, 0.2}


def test_negative_reactance_uses_magnitude():
    net = parse_case(TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 2 0.01 -0.1"))
    assert net.lines[0].reactance == pytest.approx(0.1)


def test_total_load_examples():
    assert total_load(parse_case(TWO_BUS_CASE)) == pytest.approx(1.0)
    zero = parse_case(TWO_BUS_CASE.replace("2 1 100 5", "2 1 0 5"))
    assert total_load(zero) == 0.0
    three = Network(
        [Bus(1, 0.5), Bus(2, 0.25), Bus(3, 0.25)],
        [Line(1, 1, 2, 0.1, 1.0), Line(2, 2, 3, 0.1, 1.0)])
    assert total_load(three) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_serialize_round_trip(name):
    net = fx.FIXTURES[name]()
    back = parse_case(serialize_case(net))
    assert [b.id for b in back.buses] == [b.id for b in net.buses]
    assert [l.id for l in back.lines] == [l.id for l in net.lines]
    for b1, b2 in zip(net.buses, back.buses):
        assert b2.demand == pytest.approx(b1.demand, abs=1e-15)
        assert b2.gen_cap == pytest.approx(b1.gen_cap, abs=1e-15)
    for l1, l2 in zip(net.lines, back.lines):
        assert (l2.from_bus, l2.to_bus) == (l1.from_bus, l1.to_bus)
        assert l2.reactance == pytest.approx(l1.reactance, abs=1e-15)
        assert l2.thermal == pytest.approx(l1.thermal, abs=1e-15)
    assert total_load(back) == pytest.approx(total_load(net))


def _rows_joined(text: str, per_line: int | None) -> str:
    """``text`` with each matrix block's rows written ``per_line`` to a line,
    or with ``per_line`` None all on the block's opening line."""
    out, rows = [], None
    for line in text.splitlines():
        if line.endswith("= ["):
            out.append(line)
            rows = []
        elif rows is None:
            out.append(line)
        elif line != "];":
            rows.append(line.strip())
        elif per_line is None:
            out[-1] += " ".join(rows)[:-1] + "];"
            rows = None
        else:
            out += [" ".join(rows[i:i + per_line]) for i in range(0, len(rows), per_line)]
            out.append("];")
            rows = None
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_rows_sharing_a_line_parse_as_separate_rows(name):
    text = serialize_case(fx.FIXTURES[name]())
    net = parse_case(text)
    for per_line in (2, None):
        joined = _rows_joined(text, per_line)
        assert len(joined.splitlines()) < len(text.splitlines())
        assert parse_case(joined) == net, per_line


HEAD = "mpc.baseMVA = 1;\nmpc.bus = ["


@pytest.mark.parametrize("edits", [
    [(HEAD, "mpc.version = '2';\nmpc.baseMVA = 10;\nmpc.bus = [")],
    [(HEAD, "mpc.version = '2'; mpc.baseMVA = 10;\nmpc.bus = [")],
    [(HEAD, "mpc.version = '2';\nmpc.baseMVA = 10; mpc.bus = [")],
    [(HEAD, "mpc.bus = ["), ("];\nmpc.gen = [", "]; mpc.baseMVA = 10;\nmpc.gen = [")],
    [(HEAD, "mpc.version = '2'; mpc.baseMVA = 10\nmpc.bus = [")],
], ids=["own-lines", "scalars-share-a-line", "scalar-opens-block", "scalar-after-block",
        "no-final-semicolon"])
def test_scalars_sharing_a_line_are_all_read(edits):
    # The triangle's 2 MW of demand on a 10 MVA base is 0.2 p.u.
    text = serialize_case(fx.triangle())
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    assert total_load(parse_case(text)) == pytest.approx(0.2)
    # A bad bus row is reported on the line it stands on in every layout.
    bad = text.replace("\t2\t1\t1.0\t", "\t2\t1\tx\t", 1)
    row = next(i for i, l in enumerate(bad.splitlines(), start=1) if "\tx\t" in l)
    with pytest.raises(CaseFormatError, match=rf"^line {row}: .*field 3"):
        parse_case(bad)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_adjacency_partitions_incidence(name):
    net = fx.FIXTURES[name]()
    # Each line leaves its from bus and enters its to bus, in position order.
    fr, to = net.endpoint_positions()
    for e, line in enumerate(net.lines):
        assert net.line_pos[line.id] == e
        assert (fr[e], to[e]) == (net.bus_pos[line.from_bus], net.bus_pos[line.to_bus])
    assert len(fr) == len(to) == len(net.lines)


def _graph_search_islands(fr, to, n, cuts):
    """``_islands`` by scipy's graph search, on the same one graph holding
    a copy of the network per row."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    count = len(cuts)
    keep = np.ones((count, len(fr)), dtype=bool)
    keep[np.arange(count)[:, None], cuts] = False
    row, line = np.nonzero(keep)
    ends = (row * n + fr[line], row * n + to[line])
    graph = sparse.coo_array((np.ones(len(line)), ends), shape=(count * n,) * 2)
    return connected_components(graph, directed=False)[1].reshape(count, n)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES) + [f"two_meshes({s})" for s in range(10)]
                         + [f"random_mesh({s})" for s in range(60)])
def test_islands_match_a_graph_search_on_every_cut_of_up_to_two_lines(name):
    if name in fx.FIXTURES:
        net = fx.FIXTURES[name]()
    else:
        make, seed = name[:-1].split("(")
        net = {"two_meshes": two_meshes, "random_mesh": fx.random_mesh}[make](int(seed))
    fr, to = net.endpoint_positions()
    for k in (0, 1, 2):
        cuts = np.array(list(combinations(range(len(net.lines)), k)), dtype=int)
        cuts = cuts.reshape(len(cuts), k)
        assert np.array_equal(_islands(fr, to, len(net.buses), cuts),
                              _graph_search_islands(fr, to, len(net.buses), cuts)), k


def test_geo_parse_and_errors(two_bus):
    bare = Network([Bus(1, 0.0, 1.0), Bus(2, 1.0)], [Line(1, 1, 2, 0.1, 1.0)])
    net = parse_geo("bus_id,lat,lon\n1,40.0,-111.0\n", bare)
    b1 = net.buses[net.bus_pos[1]]
    assert b1.has_geo and b1.lat == 40.0 and b1.lon == -111.0
    assert not net.buses[net.bus_pos[2]].has_geo

    with pytest.raises(GeoFormatError, match="unknown bus id"):
        parse_geo("bus_id,lat,lon\n99,40.0,-111.0\n", bare)
    with pytest.raises(GeoFormatError, match="latitude out of range"):
        parse_geo("bus_id,lat,lon\n1,95.0,0.0\n", bare)
    with pytest.raises(GeoFormatError, match="longitude out of range"):
        parse_geo("bus_id,lat,lon\n1,45.0,181.0\n", bare)
    with pytest.raises(GeoFormatError, match="duplicate bus id"):
        parse_geo("bus_id,lat,lon\n1,40.0,-111.0\n1,41.0,-111.0\n", bare)
    with pytest.raises(GeoFormatError, match="header"):
        parse_geo("id,lat,lon\n1,40.0,-111.0\n", bare)


def test_a_geo_file_that_is_empty_or_has_a_bad_row_is_rejected():
    bare = Network([Bus(1, 0.0, 1.0), Bus(2, 1.0)], [Line(1, 1, 2, 0.1, 1.0)])
    for empty in ("", "\n  \n"):
        with pytest.raises(GeoFormatError, match="^empty geolocation file$"):
            parse_geo(empty, bare)
    with pytest.raises(GeoFormatError, match="^line 2: expected 3 fields, got 2$"):
        parse_geo("bus_id,lat,lon\n1,40.0\n", bare)
    for row in ("one,40.0,-111.0", "1,north,-111.0", "1.5,40.0,-111.0"):
        with pytest.raises(GeoFormatError, match=f"^line 2: malformed row '{row}'$"):
            parse_geo(f"bus_id,lat,lon\n{row}\n", bare)


def test_geo_errors_name_their_file_line():
    # Blank lines count: the line named is the file's, not the row's.
    bare = Network([Bus(1, 0.0, 1.0), Bus(2, 1.0)], [Line(1, 1, 2, 0.1, 1.0)])
    head = "bus_id,lat,lon\n2,41.0,-111.0\n\n"
    with pytest.raises(GeoFormatError, match=r"^line 4: bus 1: latitude out of range: 95.0$"):
        parse_geo(head + "1,95.0,0.0\n", bare)
    with pytest.raises(GeoFormatError, match=r"^line 4: bus 1: longitude out of range: 181.0$"):
        parse_geo(head + "1,45.0,181.0\n", bare)
    with pytest.raises(GeoFormatError, match=r"^line 4: unknown bus id 99$"):
        parse_geo(head + "99,40.0,-111.0\n", bare)


def test_a_bus_has_both_coordinates_or_neither():
    bare = Bus(1)
    assert (bare.lat, bare.lon, bare.has_geo) == (None, None, False)
    assert Bus(1, lat=40.0, lon=-111.0).has_geo
    assert "has_geo" not in [f.name for f in fields(Bus)]
    # Any coordinate given is range-checked.
    with pytest.raises(ValueError, match="latitude out of range"):
        Bus(1, lat=95.0, lon=500.0)
    with pytest.raises(ValueError, match="longitude out of range"):
        Bus(1, lat=40.0, lon=500.0)
    for half in ({"lat": 40.0}, {"lon": -111.0}):
        with pytest.raises(ValueError, match="lat and lon must be given together"):
            Bus(1, **half)


def test_bus_and_line_invariants():
    with pytest.raises(ValueError):
        Bus(1, demand=-0.1)
    with pytest.raises(ValueError):
        Bus(1, lat=91.0, lon=0.0)
    with pytest.raises(ValueError):
        Line(1, 1, 1, 0.1, 1.0)
    with pytest.raises(ValueError, match="unknown bus"):
        Network([Bus(1, 1.0)], [Line(1, 1, 2, 0.1, 1.0)])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            Bus(1, demand=bad)
        with pytest.raises(ValueError, match="finite"):
            Bus(1, gen_cap=bad)
        with pytest.raises(ValueError, match="finite"):
            Line(1, 1, 2, 0.1, bad)
        with pytest.raises(ValueError, match="finite"):
            Line(1, 1, 2, bad, 1.0)


def test_a_negative_capacity_or_a_non_positive_rating_is_rejected():
    with pytest.raises(ValueError, match=r"^bus 1: gen_cap must be >= 0, got -0.5$"):
        Bus(1, gen_cap=-0.5)
    for thermal in (0.0, -1.0):
        with pytest.raises(ValueError, match=rf"^line 1: non-positive thermal limit {thermal}$"):
            Line(1, 1, 2, 0.1, thermal)


def test_infinite_rating_is_rejected_not_priced_as_zero():
    # With an infinite rating an attack used to price the line's thermal row
    # at inf * 0 = NaN, which was dropped: the removed line kept its flow.
    with pytest.raises(ValueError, match="finite"):
        Network([Bus(1, 0.0, 2.0), Bus(2, 1.0)], [Line(1, 1, 2, 0.1, np.inf)])


def test_a_network_is_made_one_way():
    net = Network([Bus(1, 0.0, 1.0), Bus(2, 1.0)], [Line(1, 1, 2, 0.1, 1.0)])
    assert type(net.buses) is tuple and type(net.lines) is tuple
    assert not hasattr(Network, "build") and not hasattr(Network, "with_buses")
    # dataclasses.replace makes a new network, checked like any other.
    with pytest.raises(ValueError, match="references unknown bus"):
        replace(net, buses=net.buses[:1])


def test_factor_over_a_spur_table_stays_bounded():
    # The 10x10 lattice with 50 spurs, k = 2: 10 229 of the 26 335 attacks
    # split an island. Searching their islands in one step peaked at 206 MiB.
    net = spurs(10, 10, 50)
    (cuts,) = attack_table(net, AttackerModel.traditional(2))
    pf = net.power_flow
    tracemalloc.start()
    try:
        outages = pf.factor(cuts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(cuts), np.count_nonzero(outages.torn >= 0)) == (26335, 10229)
    assert outages.islands.dtype == np.int32
    assert peak < 48 * 2**20, peak / 2**20


@pytest.mark.parametrize("k", [1, 2, 3])
def test_factor_is_the_same_at_any_chunk_size(monkeypatch, k):
    # One row per chunk. At k = 3 every 20th of the 59 640 attacks keeps
    # the run short.
    net = spurs(6, 6, 12)
    (cuts,) = attack_table(net, AttackerModel.traditional(k))
    cuts = cuts[::20] if k == 3 else cuts
    whole = net.power_flow.factor(cuts)
    assert (whole.torn >= 0).any()
    monkeypatch.setattr(netmodel, "BATCH_ENTRIES", 64)
    for got, want in zip(net.power_flow.factor(cuts), whole):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_network_takes_only_buses_and_lines():
    net = fx.two_bus()
    assert [f.name for f in fields(Network) if f.init] == ["buses", "lines"]
    assert Network(net.buses, net.lines) == net
    with pytest.raises(TypeError):
        Network(net.buses, net.lines, 1.0)
    with pytest.raises(TypeError):
        Network(net.buses, net.lines, big_M=1.0)


@pytest.mark.parametrize("k", [1.5, 2.0, "2", None, True, False])
def test_attacker_model_rejects_a_non_integer_k(k):
    # Counting and enumerating attacks takes an integer k. A bool is an
    # Integral, but True solved as k = 1 and its report read "k": true.
    for variant in ("traditional", "spatial", "topological"):
        with pytest.raises(ValueError, match="k must be an integer"):
            AttackerModel(variant, k, 80.0 if variant == "spatial" else None)
    assert AttackerModel.spatial(np.int64(2), 80.0).k == 2


@pytest.mark.parametrize("center", [True, False, 2.0, 1.5, "2"])
def test_attacker_model_rejects_a_center_bus_that_is_not_an_integer(center):
    # True matched bus 1 on mesh8 and 2.0 matched bus 2, and the plan's
    # center_bus, then the report's, read true or 2.0.
    with pytest.raises(ValueError, match="center_bus must be an integer"):
        AttackerModel.spatial(2, 160.0, center)
    assert AttackerModel.spatial(2, 160.0, np.int64(2)).center_bus == 2


@pytest.mark.parametrize("d", [True, float("inf"), float("-inf"), float("nan"), "80", None])
def test_attacker_model_rejects_a_D_that_is_a_bool_or_not_finite(d):
    # An infinite D solved and its report read "D_km": Infinity, which is
    # not JSON; True solved as 1 km.
    with pytest.raises(ValueError, match="requires a finite D_km > 0"):
        AttackerModel.spatial(2, d)
    assert AttackerModel.spatial(2, np.float64(80.0)).D_km == 80.0
    assert AttackerModel.spatial(2, 80).D_km == 80


def test_attacker_model_invariants():
    with pytest.raises(ValueError):
        AttackerModel.traditional(0)
    with pytest.raises(ValueError):
        AttackerModel.spatial(2, -5.0)
    with pytest.raises(ValueError):
        AttackerModel.spatial(2, float("nan"))
    with pytest.raises(ValueError):
        AttackerModel("traditional", 2, D_km=10.0)
    with pytest.raises(ValueError, match="^unknown attacker variant: 'radial'$"):
        AttackerModel("radial", 2)
    m = AttackerModel.spatial(2, 100.0, center_bus=4)
    assert m.center_bus == 4

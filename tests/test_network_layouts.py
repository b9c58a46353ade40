"""The columnar network section of obsblock-design/4 and the layout before it.

tests/data holds files written before /4, with one JSON object per edge
and dense coupling matrices: a /3 cutset record (fig2_din, seed 2), a /3
direct record of a generic network (generic_network(n=7, seed=2, m=1,
q=3)) and an indented network file (generic_network(n=8, seed=0, m=1,
q=3)).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsblock import records
from obsblock.cli import main
from obsblock.cutset import CutsetDesign
from obsblock.errors import InvalidInputError, NetworkFileError
from obsblock.graph import WeightedDigraph
from obsblock.model import (IntegratorNetwork, dumps, load_network, network_from_dict,
                            network_to_dict, save_network)
from obsblock.verify import verify_design

from conftest import without_dropped_keys

DATA = Path(__file__).parent / "data"
FORMAT_3_RECORDS = ("cutset-fig2-din-seed2.v3.json", "direct-generic-n7-seed2.v3.json")
OLD_NETWORK_FILE = DATA / "network-generic-n8.old.json"


def legacy_network_dict(network: IntegratorNetwork) -> dict:
    """The network section as written before format /4: one object per
    edge, and every coupling matrix in full when they are written."""
    data = {
        "order": network.order,
        "n": network.n,
        "edges": [{"from": u, "to": v, "weights": list(ws)}
                  for (u, v, ws) in network.graph.edges],
        "actuation": list(network.actuation),
        "measurement": list(network.measurement),
    }
    if "couplings" in network_to_dict(network):
        data["couplings"] = [L.tolist() for L in network.laplacians]
    return data


def assert_bit_equal(ours: IntegratorNetwork, theirs: IntegratorNetwork):
    assert (ours.n, ours.order, ours.actuation, ours.measurement) == \
        (theirs.n, theirs.order, theirs.actuation, theirs.measurement)
    for name in ("tails", "heads", "weights"):
        a, b = getattr(ours.graph, name), getattr(theirs.graph, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert [L.tobytes() for L in ours.laplacians] == \
        [L.tobytes() for L in theirs.laplacians]


def audit(design) -> dict:
    inner = design.design if isinstance(design, CutsetDesign) else design
    return records.verification_to_dict(
        verify_design(inner, rng=np.random.default_rng(0)))


class TestFormat3Files:
    @pytest.mark.parametrize("name", FORMAT_3_RECORDS)
    def test_record_verifies_like_its_resave(self, name, tmp_path):
        data = json.loads((DATA / name).read_text())
        assert data["format"] == "obsblock-design/3"
        assert isinstance(data["network"]["edges"], list)
        old = records.load_design(DATA / name)
        path = tmp_path / "resaved.json"
        records.save_design(old, path)
        resaved = json.loads(path.read_text())
        assert resaved["format"] == records.FORMAT
        assert set(resaved["network"]["edges"]) == {"from", "to", "weights"}
        new = records.load_design(path)
        assert records.design_to_dict(new) == resaved
        # every key but the format string, the network, the dropped
        # variant and the other dropped keys is unchanged
        assert {k: v for k, v in resaved.items() if k not in ("format", "network")} == \
            {k: v for k, v in without_dropped_keys(data).items()
             if k not in ("format", "network", "variant")}
        report = audit(old)
        assert report["verdict"] == "pass"
        assert audit(new) == report
        assert_bit_equal(getattr(old, "design", old).network,
                         getattr(new, "design", new).network)

    def test_generic_record_writes_sparse_couplings(self):
        data = json.loads((DATA / "direct-generic-n7-seed2.v3.json").read_text())
        old = records.design_from_dict(data)
        section = network_to_dict(old.network)
        m = len(data["network"]["edges"])
        assert len(data["network"]["couplings"]) == 2
        assert [len(row) for row in section["couplings"]["diagonal"]] == [7, 7]
        assert [len(row) for row in section["couplings"]["edges"]] == [m, m]
        assert not old.network.is_laplacian_form()

    def test_network_file_resaves_compact_and_designs_the_same(self, tmp_path):
        old_text = OLD_NETWORK_FILE.read_text()
        old = load_network(OLD_NETWORK_FILE)
        assert json.loads(old_text) == legacy_network_dict(old)
        assert old_text.count("\n") > 100
        path = tmp_path / "net.json"
        save_network(old, path)
        text = path.read_text()
        assert text == dumps(network_to_dict(old))
        assert text.count("\n") == 1
        new = load_network(path)
        assert_bit_equal(old, new)
        assert new.graph.edges == old.graph.edges
        records_out = []
        for i, source in enumerate((OLD_NETWORK_FILE, path)):
            out = tmp_path / f"design{i}.json"
            assert main(["design", "--input", str(source), "--output", str(out)]) == 0
            records_out.append(out.read_bytes())
        assert records_out[0] == records_out[1]

    def test_reading_builds_no_edge_objects(self):
        net = network_from_dict(network_to_dict(load_network(OLD_NETWORK_FILE)))
        assert "edges" not in vars(net.graph)
        assert len(net.graph.edges) == net.graph.tails.size
        assert "edges" in vars(net.graph)


def _generic_base() -> IntegratorNetwork:
    """A 3-node cycle in both directions with non-Laplacian couplings."""
    pairs = ((3, 1), (1, 2), (2, 3), (2, 1), (3, 2), (1, 3))
    graph = WeightedDigraph(n=3, edges=tuple((u, v, (1.0, 2.0)) for (u, v) in pairs))
    mats = []
    for k in range(2):
        L = np.diag([2.0 + k, 3.0, 4.0])
        L[graph.heads, graph.tails] = -0.5 * (1 + k)
        mats.append(L)
    return IntegratorNetwork(order=2, graph=graph, actuation=(1,), measurement=(3,),
                             laplacians=tuple(mats))


def _set_weight(value):
    def columnar(d):
        d["edges"]["weights"][1][2] = value

    def listed(d):
        d["edges"][2]["weights"][1] = value
    return columnar, listed


def _pop_to(d):
    d["edges"]["to"].pop()


def _drop_to(d):
    del d["edges"][-1]["to"]


def _set_id(value):
    def columnar(d):
        d["edges"]["from"][0] = value

    def listed(d):
        d["edges"][0]["from"] = value
    return columnar, listed


def _duplicate(d):
    for key in ("from", "to"):
        d["edges"][key][3] = d["edges"][key][0]


def _duplicate_listed(d):
    for key in ("from", "to"):
        d["edges"][3][key] = d["edges"][0][key]


def _short_diagonals(d):
    for row in d["couplings"]["diagonal"]:
        row.pop()


def _short_matrix_row(d):
    d["couplings"][1][2].pop()


def _long_edge_rows(d):
    for row in d["couplings"]["edges"]:
        row.append(1.0)


def _long_matrix_row(d):
    d["couplings"][0][0].append(1.0)


# (case, error of both layouts, what the columnar error says, change to
# the columnar section, the same defect in the old layout)
MALFORMED = [
    ("float-id", NetworkFileError, "node id 1.0 is not an integer", *_set_id(1.0)),
    ("bool-id", NetworkFileError, "node id True is not an integer", *_set_id(True)),
    ("from-to-lengths", NetworkFileError, "6 from ids and 5 to ids", _pop_to, _drop_to),
    ("weight-rows", NetworkFileError, "1 weight rows, file order is 2",
     lambda d: d["edges"]["weights"].pop(),
     lambda d: [e["weights"].pop() for e in d["edges"]]),
    ("ragged-row", NetworkFileError, "weight row 1 has 5 entries for 6 edges",
     lambda d: d["edges"]["weights"][1].pop(),
     lambda d: d["edges"][-1]["weights"].pop()),
    ("zero-weight", InvalidInputError, "edge (2,3) weight 0.0 not", *_set_weight(0.0)),
    ("infinite-weight", InvalidInputError, "edge (2,3) weight inf not",
     *_set_weight(math.inf)),
    ("nan-weight", InvalidInputError, "edge (2,3) weight nan not", *_set_weight(math.nan)),
    ("duplicate-edge", InvalidInputError, "duplicate edge (3,1)", _duplicate,
     _duplicate_listed),
    ("short-diagonals", NetworkFileError, "couplings diagonal (2, 2) and edges (2, 6)",
     _short_diagonals, _short_matrix_row),
    ("long-edge-rows", NetworkFileError, "couplings diagonal (2, 3) and edges (2, 7)",
     _long_edge_rows, _long_matrix_row),
]


class TestMalformedColumnarSection:
    @pytest.mark.parametrize("case, error, says, columnar, listed", MALFORMED,
                             ids=[c[0] for c in MALFORMED])
    def test_raises_the_error_of_its_old_layout_twin(self, case, error, says, columnar,
                                                     listed, tmp_path, capsys):
        base = _generic_base()
        new, old = network_to_dict(base), legacy_network_dict(base)
        assert "couplings" in new and "couplings" in old
        for data in (new, old):
            assert_bit_equal(network_from_dict(json.loads(json.dumps(data))), base)
        columnar(new)
        listed(old)
        errors = []
        for data in (new, old):
            with pytest.raises(error) as got:
                network_from_dict(json.loads(json.dumps(data)))
            errors.append(got.value)
        assert type(errors[0]) is type(errors[1])
        assert says in str(errors[0])
        if error is InvalidInputError or case.endswith("-id"):
            assert str(errors[0]) == str(errors[1])
        # through the command line: exit 4 for a parse failure, 2 for an
        # invalid network
        path = tmp_path / "net.json"
        path.write_text(json.dumps(new))
        capsys.readouterr()
        assert main(["design", "--input", str(path)]) == \
            (4 if error is NetworkFileError else 2)
        assert capsys.readouterr().err == f"error: {errors[0]}\n"


@st.composite
def networks(draw):
    """(network, triples): a Laplacian or generic network of order 2-4 on
    at most 12 nodes, and the edge triples its graph was built from."""
    n = draw(st.integers(1, 12))
    order = draw(st.integers(2, 4))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) \
        if pairs else []
    weights = st.lists(st.floats(min_value=1e-300, max_value=1e300),
                       min_size=order, max_size=order)
    triples = tuple((u, v, tuple(draw(weights))) for (u, v) in chosen)
    graph = WeightedDigraph(n=n, edges=triples)
    nodes = draw(st.permutations(range(1, n + 1)))
    q = draw(st.integers(0, n))
    m = draw(st.integers(0, n - q))
    act, meas = tuple(nodes[:q]), tuple(nodes[q:q + m])
    if not draw(st.booleans()):
        return IntegratorNetwork(order=order, graph=graph, actuation=act,
                                 measurement=meas), triples
    value = st.floats(allow_nan=False, allow_infinity=False)
    mats = []
    for _ in range(order):
        L = np.zeros((n, n))
        L[graph.heads, graph.tails] = draw(
            st.lists(value, min_size=len(triples), max_size=len(triples)))
        L[np.arange(n), np.arange(n)] = draw(st.lists(value, min_size=n, max_size=n))
        mats.append(L)
    return IntegratorNetwork(order=order, graph=graph, actuation=act,
                             measurement=meas, laplacians=tuple(mats)), triples


class TestRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(networks())
    def test_both_layouts_read_back_bit_equal(self, case):
        net, triples = case
        section = network_to_dict(net)
        columnar = network_from_dict(json.loads(dumps(section)))
        listed = network_from_dict(json.loads(json.dumps(legacy_network_dict(net))))
        for back in (columnar, listed):
            assert back.graph.edges == triples
            for name in ("tails", "heads", "weights"):
                assert getattr(back.graph, name).tobytes() == \
                    getattr(net.graph, name).tobytes()
            assert all(np.array_equal(a, b)
                       for a, b in zip(back.laplacians, net.laplacians))
            assert_bit_equal(back, columnar)
        if "couplings" in section or not net.explicit_couplings:
            # unwritten couplings equal the Laplacians only in value: a
            # given -0.0 reads back as the Laplacian's 0.0
            assert_bit_equal(columnar, net)
        assert network_to_dict(columnar) == network_to_dict(listed) == section

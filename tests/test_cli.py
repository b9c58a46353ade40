from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from obsblock import records
from obsblock.cli import main
from obsblock.config import DesignOptions
from obsblock.cutset import CutsetDesign, design_via_cutset
from obsblock.designer import design_blocking
from obsblock.model import assemble, load_network, network_to_dict
from obsblock.scenarios import fig2_din, generic_network, random_network
from obsblock.spectrum import decompose
from obsblock.verify import verify_design


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--n", "11", "--order", "2", "--seed", "7",
                     "--output", str(a)]) == 0
        assert main(["gen", "--n", "11", "--order", "2", "--seed", "7",
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_density_one_complete(self, tmp_path):
        out = tmp_path / "k.json"
        assert main(["gen", "--n", "5", "--density", "1.0",
                     "--output", str(out)]) == 0
        net = load_network(out)
        assert len(net.graph.edges) == 5 * 4

    def test_generated_strongly_connected(self, tmp_path):
        from obsblock.graph import is_strongly_connected
        out = tmp_path / "g.json"
        assert main(["gen", "--n", "9", "--density", "0.25", "--seed", "3",
                     "--output", str(out)]) == 0
        assert is_strongly_connected(load_network(out).graph)


class TestPipeline:
    def test_gen_cut_design_verify_roundtrip(self, tmp_path):
        net_file = tmp_path / "net.json"
        design_file = tmp_path / "design.json"
        report_file = tmp_path / "verify.json"
        assert main(["gen", "--n", "8", "--m", "2", "--q", "4", "--seed", "5",
                     "--density", "0.4", "--output", str(net_file)]) == 0
        assert main(["cut", "--input", str(net_file)]) == 0
        assert main(["design", "--input", str(net_file), "--seed", "5",
                     "--output", str(design_file)]) == 0
        assert design_file.exists()
        assert main(["verify", "--input", str(design_file), "--seed", "5",
                     "--output", str(report_file)]) == 0
        report = json.loads(report_file.read_text())
        assert report["verdict"] == "pass"
        assert report["pbh_rank_at_lambda"] < report["full_state_dim"]

    def test_design_determinism_bytes(self, tmp_path):
        net_file = tmp_path / "net.json"
        main(["gen", "--n", "7", "--m", "1", "--q", "3", "--seed", "2",
              "--output", str(net_file)])
        d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
        assert main(["design", "--input", str(net_file), "--seed", "9",
                     "--output", str(d1)]) == 0
        assert main(["design", "--input", str(net_file), "--seed", "9",
                     "--output", str(d2)]) == 0
        assert d1.read_bytes() == d2.read_bytes()

    def test_cutset_flag(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        from obsblock.model import save_network
        save_network(fig2_din(seed=0), net_file)
        design_file = tmp_path / "d.json"
        assert main(["design", "--input", str(net_file), "--cutset",
                     "--seed", "0", "--output", str(design_file)]) == 0
        out = capsys.readouterr().out
        assert "cutset transfer certificate" in out
        assert "Vcut=[5]" in out

    def test_lambda_value_flag(self, tmp_path):
        net_file = tmp_path / "net.json"
        from obsblock.model import save_network
        net = fig2_din(seed=0)
        save_network(net, net_file)
        from obsblock.model import assemble
        from obsblock.spectrum import decompose
        sd = decompose(assemble(net)[0])
        lam = min((x for x in sd.eigenvalues.real if x < -1e-3), key=abs)
        assert main(["design", "--input", str(net_file), "--cutset",
                     "--lambda", f"value:{lam}", "--seed", "1"]) == 0


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        assert main(["cut", "--input", "/nonexistent/net.json"]) == 4
        assert "error:" in capsys.readouterr().err

    def test_corrupted_design_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"format\": \"other\"}")
        assert main(["verify", "--input", str(bad)]) == 4

    @pytest.mark.parametrize("defect", [
        "cutset-plan-without-v2", "lg-eigenvalues-plain-list",
        "v_hat-too-short", "F-wrong-shape"])
    def test_malformed_cutset_record_is_io_error(self, defect, tmp_path, capsys):
        data = records.design_to_dict(
            design_via_cutset(fig2_din(seed=0), options=DesignOptions(seed=0)))
        if defect == "cutset-plan-without-v2":
            del data["cutset"]["plan"]["v2"]
        elif defect == "lg-eigenvalues-plain-list":
            data["cutset"]["lg"]["eigenvalues"] = [0.0, 1.0]
        elif defect == "v_hat-too-short":
            for part in ("real", "imag"):
                data["v_hat"][part] = data["v_hat"][part][:-1]
        else:
            data["F"] = [row[:-1] for row in data["F"]]
        path = tmp_path / "bad.json"
        path.write_text(records.dumps(data))
        assert main(["verify", "--input", str(path)]) == 4
        assert "error: malformed design record" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("preserved", [999]), ("lambda_index", 999), ("repaired", [-1]),
        ("replaced", [14]), ("measured_nodes", [8]), ("F", "nan"),
        ("F", "inf"), ("v_hat", "nan")])
    def test_bad_index_or_non_finite_record_is_io_error(self, key, value,
                                                        tmp_path, capsys):
        net = random_network(n=7, seed=1, m=1, q=3)
        data = records.design_to_dict(design_blocking(net, DesignOptions(seed=1)))
        if key == "F":
            data["F"][0][0] = float(value)
        elif key == "v_hat":
            data["v_hat"]["imag"][0] = float(value)
        else:
            data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(records.dumps(data))
        assert main(["verify", "--input", str(path)]) == 4
        assert "error: malformed design record" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("lambda_index", 2.7), ("lambda_index", True), ("measured_nodes", [1.9]),
        ("preserved", [0, 1.0]), ("repaired", [False]), ("replaced", ["3"]),
        ("v1", [1.5]), ("vcut", [True]), ("v2", [2.0]), ("permutation", [0.0])],
        ids=["lambda_index-2.7", "lambda_index-true", "measured_nodes-1.9",
             "preserved-1.0", "repaired-false", "replaced-string", "v1-1.5",
             "vcut-true", "v2-2.0", "permutation-0.0"])
    def test_non_integer_record_index_is_io_error(self, key, value, tmp_path,
                                                  capsys):
        data = records.design_to_dict(
            design_via_cutset(fig2_din(seed=0), options=DesignOptions(seed=0)))
        plan = data["cutset"]["plan"]
        (plan if key in plan else data)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(records.dumps(data))
        assert main(["verify", "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"error: malformed design record: {key} value" in err
        assert "is not an integer" in err

    @pytest.mark.parametrize("key, value", [
        ("from", 1.5), ("actuation", [1.9]), ("to", "1"), ("to", True),
        ("n", 3.7), ("order", 2.0), ("order", True), ("measurement", [False]),
        ("weights", "2"), ("weights", 10**400)],
        ids=["from-1.5", "actuation-1.9", "to-string", "to-true", "n-3.7",
             "order-2.0", "order-true", "measurement-false", "weight-string",
             "weight-10^400"])
    def test_non_integer_network_value_is_io_error(self, key, value, tmp_path,
                                                   capsys):
        # every edge of a 3-node cycle in both directions; the doctored
        # values are ones int() and float() would take, and an integer
        # weight beyond float range
        data = {"order": 2, "n": 3, "actuation": [1], "measurement": [3],
                "edges": [{"from": u, "to": v, "weights": [1.0, 2.0]}
                          for (u, v) in ((3, 1), (1, 2), (2, 3), (2, 1),
                                         (3, 2), (1, 3))]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        assert main(["cut", "--input", str(path)]) == 0
        if key in ("from", "to"):
            data["edges"][0][key] = value
        elif key == "weights":
            data["edges"][0][key][1] = value
        else:
            data[key] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["cut", "--input", str(path)]) == 4
        assert capsys.readouterr().err.startswith("error: malformed network data: ")

    def test_insufficient_actuation_is_precondition(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        main(["gen", "--n", "7", "--m", "2", "--q", "2", "--seed", "1",
              "--output", str(net_file)])
        assert main(["design", "--input", str(net_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_lambda_spec(self, tmp_path):
        net_file = tmp_path / "net.json"
        main(["gen", "--n", "6", "--output", str(net_file)])
        assert main(["design", "--input", str(net_file),
                     "--lambda", "nonsense"]) == 2

    @pytest.mark.parametrize("spec", ["index:abc", "index:", "value:x",
                                      "value:1,2,3", "value:1,"])
    def test_malformed_lambda_number_is_precondition(self, spec, tmp_path,
                                                     capsys):
        net_file = tmp_path / "net.json"
        main(["gen", "--n", "6", "--output", str(net_file)])
        capsys.readouterr()
        assert main(["design", "--input", str(net_file), "--lambda", spec]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --lambda {spec!r}; use default, index:<k> or "
            "value:<re>[,<im>]\n")


class TestRepro:
    def test_fig2_pass_and_deterministic(self, tmp_path):
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["repro", "fig2-din", "--seed", "0", "--output", str(r1)]) == 0
        assert main(["repro", "fig2-din", "--seed", "0", "--output", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        text = r1.read_text()
        assert "repro verdict: pass" in text

    def test_fig2_weight_redraws(self, tmp_path):
        for seed in (1, 2):
            out = tmp_path / f"r{seed}.txt"
            assert main(["repro", "fig2-din", "--seed", str(seed),
                         "--output", str(out)]) == 0
            assert "repro verdict: pass" in out.read_text()

    def test_fig2_order3(self, tmp_path):
        out = tmp_path / "r3.txt"
        assert main(["repro", "fig2-din", "--order", "3", "--seed", "0",
                     "--output", str(out)]) == 0
        assert "repro verdict: pass" in out.read_text()


class TestRecords:
    def test_design_roundtrip(self, tmp_path):
        net = random_network(n=7, seed=4, m=1, q=3)
        design = design_blocking(net, DesignOptions(seed=4))
        path = tmp_path / "d.json"
        records.save_design(design, path)
        loaded = records.load_design(path)
        assert abs(loaded.lambda_p - design.lambda_p) < 1e-15
        assert np.array_equal(loaded.F, design.F)
        assert loaded.preserved == design.preserved
        assert verify_design(loaded).verdict

    def test_generic_design_roundtrip_verifies(self, tmp_path):
        net = generic_network(n=7, seed=2, m=1, q=3)
        design = design_blocking(net, DesignOptions(seed=2))
        path = tmp_path / "g.json"
        records.save_design(design, path)
        loaded = records.load_design(path)
        assert all(np.array_equal(a, b) for a, b in
                   zip(loaded.network.laplacians, net.laplacians))
        assert verify_design(loaded).verdict

    def test_cutset_roundtrip_keeps_certificate(self, tmp_path):
        net = fig2_din(seed=2)
        result = design_via_cutset(net, options=DesignOptions(seed=2))
        path = tmp_path / "c.json"
        records.save_design(result, path)
        loaded = records.load_design(path)
        assert isinstance(loaded, CutsetDesign)
        assert loaded.certificate.plan.vcut == (5,)
        assert loaded.certificate.condition.satisfied

    def test_records_carry_no_modal_matrices(self):
        direct = design_blocking(random_network(n=7, seed=4, m=1, q=3),
                                 DesignOptions(seed=4))
        cut = design_via_cutset(fig2_din(seed=2), options=DesignOptions(seed=2))
        for design in (direct, cut):
            data = records.design_to_dict(design)
            assert data["format"] == "obsblock-design/3"
            assert not {"h_p", "z_p", "V", "Z", "realness_residual"} & set(data)

    def test_format_1_record_loads_and_verifies_the_same(self):
        design = design_blocking(random_network(n=7, seed=4, m=1, q=3),
                                 DesignOptions(seed=4))
        data = records.design_to_dict(design)
        v2 = dict(data, format="obsblock-design/2", realness_residual=0.0)
        v1 = dict(v2, format="obsblock-design/1")
        for key in ("h_p", "z_p", "V", "Z"):
            v1[key] = {"real": [[0.0]], "imag": [[0.0]]}
        new_loaded = records.design_from_dict(json.loads(records.dumps(data)))
        report = records.verification_to_dict(verify_design(new_loaded))
        assert report["verdict"] == "pass"
        for old in (v1, v2):
            old_loaded = records.design_from_dict(json.loads(records.dumps(old)))
            assert np.array_equal(old_loaded.F, new_loaded.F)
            assert records.design_to_dict(old_loaded) == data
            assert records.verification_to_dict(verify_design(old_loaded)) == report

    @pytest.mark.parametrize("kind", ["direct", "cutset"])
    def test_indented_format_2_record_loads_the_same_design(self, kind, tmp_path):
        # records used to be written with indent=2; they hold the same
        # content as the compact single-line records written now
        if kind == "direct":
            design = design_blocking(random_network(n=7, seed=4, m=1, q=3),
                                     DesignOptions(seed=4))
        else:
            design = design_via_cutset(fig2_din(seed=2),
                                       options=DesignOptions(seed=2))
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        records.save_design(design, compact)
        data = records.design_to_dict(design)
        indented.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        assert compact.read_text().count("\n") == 1
        assert json.loads(compact.read_text()) == json.loads(indented.read_text())
        from_compact = records.load_design(compact)
        from_indented = records.load_design(indented)
        assert records.design_to_dict(from_indented) == data
        assert records.design_to_dict(from_compact) == data

    @pytest.mark.parametrize("kind", ["directed", "generic", "fig2-cutset"])
    def test_reloaded_record_verifies_like_the_design(self, kind):
        # the record carries everything verify_design reads
        if kind == "directed":
            design = design_blocking(random_network(n=8, seed=3, m=2, q=4),
                                     DesignOptions(seed=3))
        elif kind == "generic":
            design = design_blocking(generic_network(n=7, seed=2, m=1, q=3),
                                     DesignOptions(seed=2))
        else:
            design = design_via_cutset(fig2_din(seed=2),
                                       options=DesignOptions(seed=2))
        loaded = records.design_from_dict(
            json.loads(records.dumps(records.design_to_dict(design))))

        def audit(d):
            C = None
            if isinstance(d, CutsetDesign):
                d = d.design
                C = assemble(d.network)[2]
            report = verify_design(d, C=C, rng=np.random.default_rng(0))
            return records.verification_to_dict(report)

        report = audit(loaded)
        assert report == audit(design)
        assert report["verdict"] == "pass"

    @pytest.mark.parametrize("kind", ["laplacian", "generic", "fig2-cutset"])
    def test_reloaded_spectral_data_is_the_designers(self, kind):
        # the reader recomputes nothing: the reloaded design equals the
        # designer's field by field, and the open-loop modal data of its
        # network is the designer's bit for bit
        if kind == "laplacian":
            design = design_blocking(random_network(n=8, seed=3, m=2, q=4),
                                     DesignOptions(seed=3))
        elif kind == "generic":
            design = design_blocking(generic_network(n=7, seed=2, m=1, q=3),
                                     DesignOptions(seed=2))
        else:
            design = design_via_cutset(fig2_din(seed=2),
                                       options=DesignOptions(seed=2)).design
        loaded = records.design_from_dict(
            json.loads(records.dumps(records.design_to_dict(design))))
        loaded = getattr(loaded, "design", loaded)
        for field in dataclasses.fields(design):
            ours, theirs = getattr(design, field.name), getattr(loaded, field.name)
            if field.name == "network":
                ours, theirs = network_to_dict(ours), network_to_dict(theirs)
            elif field.name == "gain":
                ours, theirs = ours.matrix, theirs.matrix
            if isinstance(ours, np.ndarray):
                # equal values; a zero may come back with the other sign
                assert ours.dtype == theirs.dtype, field.name
                assert np.array_equal(ours, theirs), field.name
            else:
                assert ours == theirs, field.name
        ours, theirs = (decompose(assemble(d.network)[0]) for d in (design, loaded))
        for field in dataclasses.fields(ours):
            assert np.asarray(getattr(theirs, field.name)).tobytes() == \
                np.asarray(getattr(ours, field.name)).tobytes(), field.name

    def test_report_text_mentions_core_fields(self):
        net = random_network(n=6, seed=4, m=1, q=3)
        design = design_blocking(net, DesignOptions(seed=4))
        text = records.report_text(design, verify_design(design))
        assert "lambda_p" in text
        assert "gain matrix" in text
        assert "verdict: pass" in text

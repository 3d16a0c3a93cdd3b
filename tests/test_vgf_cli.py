"""File format round trips, parse diagnostics, and the command line."""

import hashlib
import json

import pytest

from ribbonpoly import cli
from ribbonpoly.fixtures import (
    ALL_FIXTURES,
    K4_SPATIAL,
    LOOP1,
    MAP_FIXTURES,
    SPATIAL_FIXTURES,
    THETA_P,
    THETA_T,
    THETA_T_AS_SPATIAL,
    TRIANGLE,
    bundled_fixture_paths,
    fixture_path,
)
from ribbonpoly.invariants import flow_poly, virtual_chromatic
from ribbonpoly.maps import CombMap
from ribbonpoly.penrose import cellular_embedding_poly, w_sl_extended, w_so
from ribbonpoly.spatial import SpatialDiagram
from ribbonpoly.vgf import VgfError, input_hash, parse_vgf, parse_vgf_file, serialize_vgf

THETA_T_HASH = "b7a610cb2ef685db7674f4057692d9485c0b20286ec32bc6504ea2d6358668af"


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    def test_object_round_trip(self, name):
        obj = ALL_FIXTURES[name]
        text = serialize_vgf(obj)
        again = parse_vgf(text)
        assert again == obj
        assert serialize_vgf(again) == text

    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    def test_bundled_files_are_canonical(self, name):
        path = fixture_path(name)
        assert path.read_text() == serialize_vgf(parse_vgf_file(path))

    def test_known_shapes(self):
        theta_p = parse_vgf_file(fixture_path("theta_p"))
        assert isinstance(theta_p, CombMap)
        assert (theta_p.vertex_count, theta_p.edge_count) == (2, 3)
        assert theta_p.genus() == 0
        assert parse_vgf_file(fixture_path("theta_t")).genus() == 1

    def test_crossings_key_marks_a_diagram(self):
        # even an empty crossings list makes the file spatial
        parsed = parse_vgf_file(fixture_path("k4_spatial"))
        assert isinstance(parsed, SpatialDiagram)
        assert parsed.crossing_count == 0
        assert parsed == K4_SPATIAL

    def test_noncanonical_text_parses_to_canonical_object(self):
        text = json.dumps(
            {
                "vertices": [[3, 1, 5], [4, 0, 2]],
                "edges": [[2, 3], [1, 0], [4, 5]],
            }
        )
        assert parse_vgf(text) == THETA_P

    def test_vertex_signs_association(self):
        text = json.dumps(
            {
                "vertices": [[0, 1]],
                "edges": [[0, 1]],
                "vertex_signs": [[0, -1]],
            }
        )
        parsed = parse_vgf(text)
        assert parsed.vertex_signs == (-1,)

    def test_hashes(self):
        assert input_hash(THETA_T) == THETA_T_HASH
        assert input_hash(parse_vgf_file(fixture_path("theta_t"))) == THETA_T_HASH
        assert input_hash(THETA_P) != input_hash(THETA_T)
        assert input_hash(K4_SPATIAL) != input_hash(K4_SPATIAL.base)


class TestParseErrors:
    def err(self, payload):
        with pytest.raises(VgfError) as info:
            parse_vgf(payload if isinstance(payload, str) else json.dumps(payload))
        return str(info.value)

    def test_malformed_json(self):
        assert "malformed JSON" in self.err("{not json")

    def test_top_level_must_be_object(self):
        assert "JSON object" in self.err("[1, 2]")

    def test_unknown_field(self):
        msg = self.err({"vertices": [[0, 1]], "edges": [[0, 1]], "colour": 3})
        assert "unknown fields: colour" in msg

    def test_missing_required_field(self):
        assert "edges" in self.err({"vertices": [[0, 1]]})

    def test_duplicate_half_edge_named(self):
        msg = self.err({"vertices": [[0, 1], [1, 2]], "edges": [[0, 1], [1, 2]]})
        assert "half-edge 1" in msg

    def test_coverage_gap(self):
        assert self.err({"vertices": [[0, 7]], "edges": [[0, 7]]})

    def test_booleans_are_not_half_edges(self):
        msg = self.err({"vertices": [[True, 1]], "edges": [[0, 1]]})
        assert "list of integers" in msg

    def test_vertex_sign_validation(self):
        base = {"vertices": [[0, 1]], "edges": [[0, 1]]}
        assert "out of range" in self.err({**base, "vertex_signs": [[4, 1]]})
        assert "+1 or -1" in self.err({**base, "vertex_signs": [[0, 3]]})

    def test_twist_index_validation(self):
        assert self.err({"vertices": [[0, 1]], "edges": [[0, 1]], "edge_twists": [5]})

    def test_crossing_record_shape(self):
        base = {
            "vertices": [[0, 1, 2, 3], [4, 5], [6, 7]],
            "edges": [[0, 4], [1, 6], [2, 5], [3, 7]],
        }
        msg = self.err({**base, "crossings": [{"vertex": 0}]})
        assert "exactly the fields" in msg
        msg = self.err({**base, "crossings": [{"vertex": 9, "over": [0, 2]}]})
        assert "out of range" in msg
        msg = self.err({**base, "crossings": [{"vertex": 0, "over": [0, 1]}]})
        assert "opposite" in msg

    def test_file_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "broken.vgf"
        bad.write_text('{"vertices": [[0, 1], [1, 2]], "edges": [[0, 1], [1, 2]]}')
        with pytest.raises(VgfError) as info:
            parse_vgf_file(bad)
        assert "broken.vgf" in str(info.value)
        with pytest.raises(VgfError):
            parse_vgf_file(tmp_path / "missing.vgf")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliInvariant:
    def test_s_polynomial(self, capsys):
        code, out, _ = run(capsys, "invariant", "--poly", "s", str(fixture_path("theta_t")))
        assert code == 0
        assert out.strip() == "-2*Q + 2"

    def test_flow_polynomial(self, capsys):
        code, out, _ = run(capsys, "invariant", "--poly", "f", str(fixture_path("theta_t")))
        assert code == 0
        assert out.strip() == flow_poly(THETA_T).render()

    def test_explicit_engines_agree(self, capsys):
        path = str(fixture_path("theta_p"))
        outputs = set()
        for engine in ("state-sum", "contraction-deletion", "brauer"):
            code, out, _ = run(capsys, "invariant", "--poly", "s", "--engine", engine, path)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_flow_engines_agree(self, capsys):
        path = str(fixture_path("theta_p"))
        outputs = set()
        for engine in ("state-sum", "contraction-deletion", "brauer"):
            code, out, _ = run(capsys, "invariant", "--poly", "f", "--engine", engine, path)
            assert code == 0
            outputs.add(out)
        assert outputs == {flow_poly(THETA_P).render() + "\n"}

    def test_engine_flag_rejected_for_other_polynomials(self, capsys):
        code, _, err = run(
            capsys,
            "invariant",
            "--poly",
            "chrom",
            "--engine",
            "state-sum",
            str(fixture_path("triangle")),
        )
        assert code == 1
        assert "--engine" in err

    def test_other_polynomials(self, capsys):
        path = str(fixture_path("triangle"))
        expected = {
            "chrom": virtual_chromatic(TRIANGLE).render(),
            "wso": w_so(TRIANGLE).render(),
            "wsl": w_sl_extended(TRIANGLE).render(),
        }
        for name, want in expected.items():
            code, out, _ = run(capsys, "invariant", "--poly", name, path)
            assert code == 0
            assert out.strip() == want
        code, out, _ = run(capsys, "invariant", "--poly", "cemb", str(fixture_path("theta_p")))
        assert code == 0
        assert out.strip() == cellular_embedding_poly(THETA_P).render()

    def test_spatial_file_rejected(self, capsys):
        code, _, err = run(
            capsys, "invariant", "--poly", "s", str(fixture_path("theta_t_as_spatial"))
        )
        assert code == 1
        assert "spatial" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariant", "--poly", "s", "/nonexistent/x.vgf")
        assert code == 1
        assert err.startswith("error:")


class TestCliSpatial:
    def test_yamada_variants(self, capsys):
        path = str(fixture_path("theta_t_as_spatial"))
        code, out, _ = run(capsys, "yamada", "--variant", "s", path)
        assert (code, out.strip()) == (0, "-2*q - 2 - 2*q^-1")
        code, out, _ = run(capsys, "yamada", "--variant", "f", path)
        assert (code, out.strip()) == (0, "q^2 + q + 2 + q^-1 + q^-2")

    def test_yamada_wraps_plain_maps(self, capsys):
        code, out, _ = run(capsys, "yamada", "--variant", "s", str(fixture_path("theta_p")))
        assert code == 0
        assert out.strip() == "q^2 + q + 2 + q^-1 + q^-2"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", str(fixture_path("theta_t_as_spatial")))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nonclassical"
        assert lines[1].startswith("rs: ")
        assert lines[2].startswith("rf: ")

    def test_spatial_golden_digest(self, capsys):
        # yamada in both variants and mirrors, then classify, over the five
        # spatial fixtures, as first recorded
        chunks = []
        for name in sorted(SPATIAL_FIXTURES):
            path = str(fixture_path(name))
            for argv in (
                ("yamada", "--variant", "s", path),
                ("yamada", "--variant", "s", "--mirror", path),
                ("yamada", "--variant", "f", path),
                ("yamada", "--variant", "f", "--mirror", path),
                ("classify", path),
            ):
                code, out, _ = run(capsys, *argv)
                assert code == 0, argv
                chunks.append(out)
        text = "".join(chunks)
        assert len(text.splitlines()) == 40
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "b4e54939a0d8d8e364e1e2ef91095528cc87665ea93e6a17882f6658fbeba4c4"

    def test_golden(self, capsys):
        code, out, _ = run(capsys, "golden", str(fixture_path("k4_spatial")))
        assert (code, out.strip()) == (0, "true")
        code, _, err = run(capsys, "golden", str(fixture_path("theta_t_as_spatial")))
        assert code == 1
        assert "allow_virtual" in err or "classical" in err
        code, out, _ = run(
            capsys, "golden", "--allow-virtual", str(fixture_path("theta_t_as_spatial"))
        )
        assert (code, out.strip()) == (0, "false")

    def test_obstruction(self, capsys):
        path = str(fixture_path("theta_r2"))
        code, out, _ = run(capsys, "obstruction", path)
        assert (code, out.strip()) == (0, "0")
        code, out, _ = run(capsys, "obstruction", "--integral", path)
        assert (code, out.strip()) == (0, "0")


class TestCliAlgebraAndBatch:
    def test_gramian_det(self, capsys):
        code, out, _ = run(capsys, "gramian", "--n", "3", "--det")
        assert (code, out.strip()) == (0, "Q^4 - 6*Q^3 + 9*Q^2 - 4*Q")

    def test_gramian_basis_size(self, capsys):
        code, out, _ = run(capsys, "gramian", "--n", "4")
        assert (code, out.strip()) == (0, "n=4 basis=9")

    def test_gramian_long_guard(self, capsys):
        code, _, err = run(capsys, "gramian", "--n", "6", "--det")
        assert code == 1
        assert "allow" in err
        code, _, err = run(capsys, "gramian", "--n", "7", "--det")
        assert code == 1

    def test_gramian_range_guard_without_det(self, capsys):
        code, _, err = run(capsys, "gramian", "--n", "7")
        assert code == 1
        assert "2 <= n <= 6" in err
        code, out, _ = run(capsys, "gramian", "--n", "6")
        assert (code, out.strip()) == (0, "n=6 basis=265")

    def test_check_reports_agreement(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "ok: 9 fixtures"
        assert all(line.endswith(": ok") for line in lines[:-1])

    def test_enumerate_smallest_census(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--cubic", "--max-vertices", "2")
        assert code == 0
        assert out.splitlines() == [
            "v=2 i=0 bridgeless C(x) = 2*x - 2",
            "v=2 i=1 bridged C(x) = 0",
        ]

    def test_enumerate_golden_digest(self, capsys):
        # The census order and every C(x) through v = 8, as first recorded.
        code, out, _ = run(capsys, "enumerate", "--cubic", "--max-vertices", "8")
        assert code == 0
        assert len(out.splitlines()) == 95
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "6f3d8d8f73b08053d7206e3cea64129eb995c195b6d5c3fe4d9fb24dae83f356"

    def test_enumerate_guards(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-vertices", "4")
        assert code == 1
        assert "--cubic" in err
        code, _, err = run(capsys, "enumerate", "--cubic", "--max-vertices", "10")
        assert code == 1
        assert "--allow-long" in err

    def test_fixtures_listing(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(bundled_fixture_paths()) == 14
        assert any(line.startswith("theta_t:") for line in lines)


class TestCliJson:
    def test_report_shape_and_determinism(self, capsys):
        path = str(fixture_path("theta_t"))
        code, first, _ = run(capsys, "invariant", "--poly", "s", "--json", path)
        assert code == 0
        code, second, _ = run(capsys, "invariant", "--poly", "s", "--json", path)
        assert first == second
        report = json.loads(first)
        assert sorted(report) == ["engine", "input_hash", "polynomials", "verdicts"]
        assert report["input_hash"] == THETA_T_HASH
        assert report["engine"] == "state-sum"
        assert report["polynomials"] == {"s": "-2*Q + 2"}

    def test_auto_engine_follows_edge_count(self, capsys):
        code, out, _ = run(capsys, "invariant", "--poly", "f", "--json", str(fixture_path("petersen")))
        assert code == 0
        assert json.loads(out)["engine"] == "brauer"

    def test_auto_engine_table(self, capsys):
        # the engine that --json names for S and flow under auto, per bundled map
        table = {
            "bouquet2_int": "state-sum",
            "bridge": "state-sum",
            "k33_std": "brauer",
            "k4": "state-sum",
            "loop1": "state-sum",
            "petersen": "brauer",
            "theta_p": "state-sum",
            "theta_t": "state-sum",
            "triangle": "state-sum",
        }
        assert sorted(table) == sorted(MAP_FIXTURES)
        for name, engine in table.items():
            path = str(fixture_path(name))
            for poly in ("s", "f"):
                code, out, _ = run(capsys, "invariant", "--poly", poly, "--json", path)
                assert code == 0, (name, poly)
                assert json.loads(out)["engine"] == engine, (name, poly)

    def test_twisted_map(self, capsys, tmp_path):
        path = tmp_path / "loop_twisted.vgf"
        path.write_text(serialize_vgf(LOOP1.toggle_twist(0)))
        assert '"edge_twists"' in path.read_text()
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, "invariant", "--poly", "s", *flags, str(path))
            assert code == 1 and out == ""
            assert err == (
                "error: S is defined for twist-free maps; "
                "twisted edges are consumed by the Penrose evaluations\n"
            )
        code, out, _ = run(capsys, "invariant", "--poly", "f", str(path))
        assert code == 0
        assert out == "Q - 1\n"

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", str(fixture_path("theta_t_as_spatial")))
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["verdict"] == "nonclassical"
        assert report["verdicts"]["cubic"] is True
        assert report["polynomials"]["rs"] == "-2*q - 2 - 2*q^-1"

    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, "golden", "--json", str(fixture_path("k4_spatial")))
        assert code == 0
        assert json.loads(out)["verdicts"] == {"golden": True}


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2
        capsys.readouterr()

    def test_bad_choice(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["invariant", "--poly", "zeta", "x.vgf"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["gramian"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_check_takes_no_allow_long(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["check", "--allow-long"])
        assert info.value.code == 2
        capsys.readouterr()
